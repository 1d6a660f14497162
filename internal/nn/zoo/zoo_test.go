package zoo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ampsinf/internal/nn"
	"ampsinf/internal/tensor"
)

// Published Keras parameter counts (including non-trainable BN
// statistics). Our graphs add biases where Keras disables them and full
// batch-norm parameter sets where Keras drops gamma, so counts are
// asserted within a small tolerance rather than exactly.
var published = map[string]int64{
	"resnet50":    25_636_712,
	"mobilenet":   4_253_864,
	"inceptionv3": 23_851_784,
	"xception":    22_910_480,
	"vgg16":       138_357_544,
}

func TestParamCountsMatchPublished(t *testing.T) {
	for name, want := range published {
		m, err := Build(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := m.TotalParams()
		diff := float64(got-want) / float64(want)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.01 {
			t.Errorf("%s params = %d, published %d (%.2f%% off)", name, got, want, diff*100)
		}
	}
}

func TestModelSizesMatchPaperTable1(t *testing.T) {
	// Table 1: ResNet50 98 MB, InceptionV3 92 MB (model weights alone).
	cases := map[string]float64{"resnet50": 98, "inceptionv3": 92}
	for name, wantMB := range cases {
		m, _ := Build(name, 0)
		gotMB := float64(m.WeightBytes()) / (1 << 20)
		if gotMB < wantMB-2 || gotMB > wantMB+2 {
			t.Errorf("%s weight size = %.1f MB, paper says ≈%v MB", name, gotMB, wantMB)
		}
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, name := range Names() {
		m, err := Build(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.NumLayers() < 5 {
			t.Errorf("%s suspiciously small: %d layers", name, m.NumLayers())
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("alexnet", 0); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestAllModelsHaveMultipleCutPoints(t *testing.T) {
	for _, name := range Names() {
		m, _ := Build(name, 0)
		segs := m.Segments()
		if len(segs) < 2 {
			t.Errorf("%s: only %d segments — cannot be partitioned", name, len(segs))
		}
	}
}

func TestResNet50Structure(t *testing.T) {
	m := ResNet50(0)
	if !m.InputShape.Equal(tensor.Shape{1, 224, 224, 3}) {
		t.Fatalf("input shape %v", m.InputShape)
	}
	out := m.Output()
	if out.Name != "predictions" || !out.OutShape.Equal(tensor.Shape{1, 1000}) {
		t.Fatalf("output %s %v", out.Name, out.OutShape)
	}
	// Keras ResNet50 has 53 conv layers (including shortcut projections)
	// and 53 batch-norm layers.
	convs, bns := 0, 0
	for _, l := range m.Layers {
		switch l.Kind {
		case nn.KindConv2D:
			convs++
		case nn.KindBatchNorm:
			bns++
		}
	}
	if convs != 53 || bns != 53 {
		t.Errorf("resnet50 has %d convs / %d bns, want 53/53", convs, bns)
	}
}

func TestMobileNetStructure(t *testing.T) {
	m := MobileNet(0)
	dw := 0
	for _, l := range m.Layers {
		if l.Kind == nn.KindDepthwiseConv2D {
			dw++
		}
	}
	if dw != 13 {
		t.Errorf("mobilenet has %d depthwise blocks, want 13", dw)
	}
	// Final feature map before pooling must be 7×7×1024 at 224 input.
	l := m.Layer("conv_pw_13_relu")
	if l == nil || !l.OutShape.Equal(tensor.Shape{1, 7, 7, 1024}) {
		t.Errorf("mobilenet final features %v", l.OutShape)
	}
}

func TestInceptionV3GridSizes(t *testing.T) {
	m := InceptionV3(0)
	cases := map[string]tensor.Shape{
		"mixed2":  {1, 35, 35, 288},
		"mixed3":  {1, 17, 17, 768},
		"mixed7":  {1, 17, 17, 768},
		"mixed8":  {1, 8, 8, 1280},
		"mixed10": {1, 8, 8, 2048},
	}
	for name, want := range cases {
		l := m.Layer(name)
		if l == nil {
			t.Fatalf("missing layer %s", name)
		}
		if !l.OutShape.Equal(want) {
			t.Errorf("%s shape %v, want %v", name, l.OutShape, want)
		}
	}
}

func TestXceptionChannelProgression(t *testing.T) {
	m := Xception(0)
	l := m.Layer("block14_s2_act")
	if l == nil || l.OutShape[3] != 2048 {
		t.Fatalf("xception final channels %v", l.OutShape)
	}
	// 8 middle-flow residual adds.
	adds := 0
	for _, lyr := range m.Layers {
		if lyr.Kind == nn.KindAdd {
			adds++
		}
	}
	if adds != 12 { // 3 entry + 8 middle + 1 exit
		t.Errorf("xception has %d Add layers, want 12", adds)
	}
}

func TestVGG16ExactParams(t *testing.T) {
	m := VGG16(0)
	if got := m.TotalParams(); got != 138_357_544 {
		t.Errorf("vgg16 params = %d, want exactly 138357544", got)
	}
}

// Reduced-resolution builds execute real forward passes quickly; verify
// the graphs actually run and produce softmax outputs.
func TestForwardExecutionReducedResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("forward execution of zoo models in -short mode")
	}
	cases := []struct {
		name string
		size int
	}{
		{"mobilenet", 64},
		{"resnet50", 64},
		{"inceptionv3", 96},
		{"xception", 96},
		{"tinycnn", 0},
		{"linearnet", 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m, err := Build(c.name, c.size)
			if err != nil {
				t.Fatal(err)
			}
			w := nn.InitWeights(m, 11)
			rng := rand.New(rand.NewSource(1))
			in := tensor.New(m.InputShape...)
			for i := range in.Data() {
				in.Data()[i] = float32(rng.Float64())
			}
			out, err := m.Forward(w, in)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, v := range out.Data() {
				sum += float64(v)
			}
			if sum < 0.99 || sum > 1.01 {
				t.Fatalf("%s output not a distribution (sum %v)", c.name, sum)
			}
		})
	}
}

// Partition equivalence on a real architecture: split ResNet50 (reduced
// resolution) at three cut points and verify outputs match end-to-end.
func TestResNet50PartitionedInferenceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("partitioned resnet in -short mode")
	}
	m := ResNet50(64)
	w := nn.InitWeights(m, 5)
	segs := m.Segments()
	if len(segs) < 4 {
		t.Fatalf("resnet50 has only %d segments", len(segs))
	}
	rng := rand.New(rand.NewSource(2))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	whole, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	// Split into 4 partitions at roughly equal segment counts.
	q := len(segs) / 4
	bounds := []int{0, q, 2 * q, 3 * q, len(segs)}
	cur := in
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi, err := nn.SegmentRange(segs, bounds[i], bounds[i+1])
		if err != nil {
			t.Fatal(err)
		}
		cur, err = m.ForwardRange(w, lo, hi, cur)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !tensor.AllClose(whole, cur, 0) {
		t.Fatalf("partitioned output differs by %v", tensor.MaxAbsDiff(whole, cur))
	}
}

// Partitioned inference is the same arithmetic in the same order as the
// whole model's, so chaining the standalone partition models over their
// weight subsets must reproduce Forward bit for bit — on the models whose
// layers bottom out in the SIMD primitives as much as on any other, on
// the residual and multi-branch graphs where a forward pass overwrites
// activations it owns, on separable convolutions (xception), on a plain
// conv stack (vgg16) and on attention (the two encoders). Every output
// element is computed by one kernel worker, so the whole Forward must
// also be the same bits at 1, 2 and 3 workers. Small input sides and
// short sequences keep the big models fast. Under the race detector
// vgg16 and bertbase skip: theirs are the largest weights in the table,
// and the detector's shadow memory multiplies them.
func TestPartitionedForwardBitIdentical(t *testing.T) {
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, c := range []struct {
		name       string
		size       int
		skipOnRace bool
	}{
		{"tinycnn", 0, false}, {"mobilenet", 64, false}, {"resnet50", 64, false},
		{"inceptionv3", 96, false}, {"xception", 80, false}, {"vgg16", 32, true},
		{"tinytransformer", 0, false}, {"bertbase", 4, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if raceEnabled && c.skipOnRace {
				t.Skip("weights too large under the race detector")
			}
			m, err := Build(c.name, c.size)
			if err != nil {
				t.Fatal(err)
			}
			w := nn.InitWeights(m, 3)
			rng := rand.New(rand.NewSource(4))
			in := tensor.New(m.InputShape...)
			for i := range in.Data() {
				in.Data()[i] = float32(rng.Float64())
			}
			tensor.SetMaxWorkers(1)
			whole, err := m.Forward(w, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3} {
				tensor.SetMaxWorkers(workers)
				again, err := m.Forward(w, in)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, fmt.Sprintf("%d workers", workers), again, whole)
			}
			cuts := m.CutPoints()
			bounds := []int{1, cuts[len(cuts)/3], cuts[2*len(cuts)/3], len(m.Layers)}
			cur := in
			for p := 0; p+1 < len(bounds); p++ {
				lo, hi := bounds[p], bounds[p+1]
				part, err := m.Partition(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if cur, err = part.Forward(nn.SubsetWeights(m, w, lo, hi), cur); err != nil {
					t.Fatal(err)
				}
			}
			requireSameBits(t, "partitioned", cur, whole)
		})
	}
}

// requireSameBits fails unless got has want's shape and every element's
// bits.
func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("%s: output %d is %v, want %v", what, i, got.Data()[i], v)
		}
	}
}
