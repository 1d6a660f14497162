package nn

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ampsinf/internal/tensor"
)

// tinyChain builds input → conv → bn → pool → flatten → dense(softmax).
func tinyChain() *Model {
	b := NewBuilder("tiny", 8, 8, 3)
	x := b.Conv("conv1", b.Input(), 4, 3, 3, 1, tensor.Same, ActReLU)
	x = b.BatchNorm("bn1", x)
	x = b.MaxPool("pool1", x, 2, 2, tensor.Valid)
	x = b.Flatten("flat", x)
	b.Dense("fc", x, 10, ActSoftmax)
	return b.Model()
}

// residualNet builds a model with a residual (Add) block so that cut
// points inside the block are invalid.
func residualNet() *Model {
	b := NewBuilder("res", 8, 8, 4)
	stem := b.Conv("stem", b.Input(), 8, 3, 3, 1, tensor.Same, ActReLU)
	br := b.Conv("branch_a", stem, 8, 3, 3, 1, tensor.Same, ActReLU)
	br = b.Conv("branch_b", br, 8, 3, 3, 1, tensor.Same, ActNone)
	merged := b.Add("merge", ActReLU, stem, br)
	x := b.GlobalAvgPool("gap", merged)
	b.Dense("fc", x, 5, ActSoftmax)
	return b.Model()
}

func TestBuilderShapeInference(t *testing.T) {
	m := tinyChain()
	cases := map[string]tensor.Shape{
		"conv1": {1, 8, 8, 4},
		"bn1":   {1, 8, 8, 4},
		"pool1": {1, 4, 4, 4},
		"flat":  {1, 64},
		"fc":    {1, 10},
	}
	for name, want := range cases {
		if got := m.Layer(name).OutShape; !got.Equal(want) {
			t.Errorf("%s shape = %v, want %v", name, got, want)
		}
	}
}

func TestParamCounts(t *testing.T) {
	m := tinyChain()
	// conv1: 3*3*3*4 + 4 = 112; bn1: 4*4 = 16; fc: 64*10 + 10 = 650.
	wants := map[string]int64{"conv1": 112, "bn1": 16, "pool1": 0, "fc": 650}
	for name, want := range wants {
		if got := m.Layer(name).ParamCount; got != want {
			t.Errorf("%s params = %d, want %d", name, got, want)
		}
	}
	if m.TotalParams() != 112+16+650 {
		t.Errorf("total params = %d", m.TotalParams())
	}
	if m.WeightBytes() != m.TotalParams()*4 {
		t.Errorf("weight bytes = %d", m.WeightBytes())
	}
}

func TestFLOPsPositiveAndAdditive(t *testing.T) {
	m := residualNet()
	var sum int64
	for _, l := range m.Layers {
		if l.Kind != KindInput && l.Kind != KindFlatten && l.Kind != KindDropout && l.Kind != KindZeroPad && l.FLOPs <= 0 {
			t.Errorf("layer %s has non-positive FLOPs %d", l.Name, l.FLOPs)
		}
		sum += l.FLOPs
	}
	if m.TotalFLOPs() != sum {
		t.Errorf("TotalFLOPs = %d, want %d", m.TotalFLOPs(), sum)
	}
}

func TestValidateCatchesBadGraphs(t *testing.T) {
	m := tinyChain()
	// Break an input reference.
	m.Layers[2].Inputs = []string{"nonexistent"}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted dangling input reference")
	}
}

func TestValidateRejectsForwardReference(t *testing.T) {
	m := tinyChain()
	m.Layers[1].Inputs = []string{"fc"} // conv1 referencing the final dense
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted forward reference")
	}
}

func TestBuilderPanicsOnDuplicateName(t *testing.T) {
	b := NewBuilder("dup", 4, 4, 1)
	b.Conv("c", b.Input(), 2, 1, 1, 1, tensor.Same, ActNone)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate layer name not rejected")
		}
	}()
	b.Conv("c", "c", 2, 1, 1, 1, tensor.Same, ActNone)
}

func TestCutPointsChainIsEverywhere(t *testing.T) {
	m := tinyChain()
	cuts := m.CutPoints()
	// Pure chain: every boundary 1..len-1 is a valid cut.
	want := len(m.Layers) - 1
	if len(cuts) != want {
		t.Fatalf("chain cut points = %v, want %d positions", cuts, want)
	}
}

func TestCutPointsSkipResidualBlock(t *testing.T) {
	m := residualNet()
	cuts := m.CutPoints()
	// Inside the residual block (between stem and merge) the stem output
	// is still live, so no cut is valid there.
	stem := m.index["stem"]
	merge := m.index["merge"]
	for _, c := range cuts {
		if c > stem+1 && c <= merge {
			t.Errorf("cut %d falls inside residual block (%d, %d]", c, stem+1, merge)
		}
	}
	// But cuts right after stem and after merge must exist.
	found := map[int]bool{}
	for _, c := range cuts {
		found[c] = true
	}
	if !found[stem+1] {
		t.Error("missing cut after stem")
	}
	if !found[merge+1] {
		t.Error("missing cut after merge")
	}
}

func TestSegmentsCoverAllLayers(t *testing.T) {
	for _, m := range []*Model{tinyChain(), residualNet()} {
		segs := m.Segments()
		pos := 1
		var params int64
		for i, s := range segs {
			if s.Lo != pos {
				t.Fatalf("%s: segment %d starts at %d, want %d", m.Name, i, s.Lo, pos)
			}
			if s.Hi <= s.Lo {
				t.Fatalf("%s: empty segment %d", m.Name, i)
			}
			if s.Layers != s.Hi-s.Lo {
				t.Fatalf("%s: segment %d layer count mismatch", m.Name, i)
			}
			pos = s.Hi
			params += s.Params
		}
		if pos != len(m.Layers) {
			t.Fatalf("%s: segments end at %d, want %d", m.Name, pos, len(m.Layers))
		}
		if params != m.TotalParams() {
			t.Fatalf("%s: segment params %d != model %d", m.Name, params, m.TotalParams())
		}
	}
}

func TestSegmentRange(t *testing.T) {
	m := residualNet()
	segs := m.Segments()
	lo, hi, err := SegmentRange(segs, 0, len(segs))
	if err != nil {
		t.Fatal(err)
	}
	if lo != 1 || hi != len(m.Layers) {
		t.Fatalf("full range = [%d, %d), want [1, %d)", lo, hi, len(m.Layers))
	}
	if _, _, err := SegmentRange(segs, 2, 1); err == nil {
		t.Fatal("inverted span accepted")
	}
}

func TestInitWeightsDeterministic(t *testing.T) {
	m := tinyChain()
	w1 := InitWeights(m, 42)
	w2 := InitWeights(m, 42)
	for name, ts := range w1 {
		for i, tt := range ts {
			if !tensor.AllClose(tt, w2[name][i], 0) {
				t.Fatalf("weights for %s[%d] differ across identical seeds", name, i)
			}
		}
	}
	w3 := InitWeights(m, 43)
	if tensor.AllClose(w1["conv1"][0], w3["conv1"][0], 0) {
		t.Fatal("different seeds produced identical conv weights")
	}
}

func TestCheckWeights(t *testing.T) {
	m := tinyChain()
	w := InitWeights(m, 1)
	if err := CheckWeights(m, w); err != nil {
		t.Fatalf("valid weights rejected: %v", err)
	}
	// Remove one tensor.
	bad := make(Weights)
	for k, v := range w {
		bad[k] = v
	}
	bad["conv1"] = bad["conv1"][:1]
	if err := CheckWeights(m, bad); err == nil {
		t.Fatal("missing bias accepted")
	}
	// Unknown layer.
	bad2 := make(Weights)
	for k, v := range w {
		bad2[k] = v
	}
	bad2["ghost"] = w["conv1"]
	if err := CheckWeights(m, bad2); err == nil {
		t.Fatal("unknown layer weights accepted")
	}
}

func TestForwardShapes(t *testing.T) {
	m := residualNet()
	w := InitWeights(m, 7)
	in := tensor.New(1, 8, 8, 4)
	for i := range in.Data() {
		in.Data()[i] = float32(i%13) * 0.1
	}
	out, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{1, 5}) {
		t.Fatalf("output shape %v", out.Shape())
	}
}

func TestForwardSoftmaxOutputIsDistribution(t *testing.T) {
	m := tinyChain()
	w := InitWeights(m, 3)
	in := tensor.New(1, 8, 8, 3)
	in.Fill(0.5)
	out, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range out.Data() {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += float64(v)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestForwardRangeRejectsInvalidCut(t *testing.T) {
	m := residualNet()
	w := InitWeights(m, 7)
	stem := m.index["stem"]
	// Start inside the residual block: branch layers need the stem output.
	in := tensor.New(1, 8, 8, 8)
	if _, err := m.ForwardRange(w, stem+2, len(m.Layers), in); err == nil {
		t.Fatal("invalid mid-residual cut accepted")
	}
}

func TestForwardRangeBounds(t *testing.T) {
	m := tinyChain()
	w := InitWeights(m, 1)
	in := tensor.New(1, 8, 8, 3)
	if _, err := m.ForwardRange(w, 0, 2, in); err == nil {
		t.Fatal("lo=0 accepted")
	}
	if _, err := m.ForwardRange(w, 3, 3, in); err == nil {
		t.Fatal("empty range accepted")
	}
}

// Partition equivalence: splitting a model at any subset of valid cut
// points and chaining ForwardRange over the parts must reproduce the
// whole-model output exactly. This is the core invariant that makes
// serverless partitioned inference correct.
func TestPartitionEquivalenceProperty(t *testing.T) {
	models := []*Model{tinyChain(), residualNet()}
	f := func(seed int64, modelPick uint8) bool {
		m := models[int(modelPick)%len(models)]
		w := InitWeights(m, 5)
		rng := rand.New(rand.NewSource(seed))
		in := tensor.New(m.InputShape...)
		for i := range in.Data() {
			in.Data()[i] = float32(rng.NormFloat64())
		}
		whole, err := m.Forward(w, in)
		if err != nil {
			return false
		}
		// Pick a random subset of cut points.
		cuts := m.CutPoints()
		var chosen []int
		for _, c := range cuts {
			if c != 1 && rng.Intn(2) == 0 {
				chosen = append(chosen, c)
			}
		}
		bounds := append([]int{1}, chosen...)
		bounds = append(bounds, len(m.Layers))
		cur := in
		for i := 0; i+1 < len(bounds); i++ {
			cur, err = m.ForwardRange(w, bounds[i], bounds[i+1], cur)
			if err != nil {
				return false
			}
		}
		return tensor.AllClose(whole, cur, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetWeights(t *testing.T) {
	m := tinyChain()
	w := InitWeights(m, 1)
	sub := SubsetWeights(m, w, 1, 3) // conv1, bn1
	if len(sub) != 2 {
		t.Fatalf("subset has %d entries, want 2", len(sub))
	}
	if _, ok := sub["fc"]; ok {
		t.Fatal("subset leaked out-of-range layer")
	}
}

func TestSummaryContainsTotals(t *testing.T) {
	s := tinyChain().Summary()
	for _, want := range []string{"conv1", "Total layers: 5", "Total params: 778"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestBatchedForward(t *testing.T) {
	m := tinyChain()
	w := InitWeights(m, 9)
	// Batch of 3 identical images must produce 3 identical rows.
	in := tensor.New(3, 8, 8, 3)
	for b := 0; b < 3; b++ {
		for i := 0; i < 8*8*3; i++ {
			in.Data()[b*8*8*3+i] = float32(i%7) * 0.2
		}
	}
	out, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape().Equal(tensor.Shape{3, 10}) {
		t.Fatalf("batched output shape %v", out.Shape())
	}
	for c := 0; c < 10; c++ {
		if out.At(0, c) != out.At(1, c) || out.At(1, c) != out.At(2, c) {
			t.Fatalf("batch rows differ at class %d", c)
		}
	}
}
