package nn

import (
	"strings"
	"testing"

	"ampsinf/internal/tensor"
)

func TestPartitionExtractsStandaloneModel(t *testing.T) {
	m := tinyChain()
	w := InitWeights(m, 4)
	segs := m.Segments()
	mid := segs[len(segs)/2].Lo
	part, err := m.Partition(mid, len(m.Layers))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
	// The partition's input shape equals the boundary activation shape.
	if !part.InputShape.Equal(m.Layers[mid-1].OutShape) {
		t.Fatalf("partition input %v, want %v", part.InputShape, m.Layers[mid-1].OutShape)
	}
	// Running the partition on the prefix output matches ForwardRange.
	in := tensor.New(m.InputShape...)
	in.Fill(0.3)
	prefix, err := m.ForwardRange(w, 1, mid, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.ForwardRange(w, mid, len(m.Layers), prefix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := part.Forward(SubsetWeights(m, w, mid, len(m.Layers)), prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, got, 0) {
		t.Fatalf("partition model diverges by %v", tensor.MaxAbsDiff(want, got))
	}
}

func TestPartitionRejectsInvalidCut(t *testing.T) {
	m := residualNet()
	stem := m.index["stem"]
	// Cutting inside the residual block must fail: the branch layers
	// consume the stem output, which would be outside the partition.
	if _, err := m.Partition(stem+2, len(m.Layers)); err == nil {
		t.Fatal("mid-residual partition accepted")
	}
}

func TestPartitionRejectsBadRanges(t *testing.T) {
	m := tinyChain()
	for _, r := range [][2]int{{0, 2}, {3, 3}, {2, 100}} {
		if _, err := m.Partition(r[0], r[1]); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

func TestPartitionNamePreservesLineage(t *testing.T) {
	m := tinyChain()
	part, err := m.Partition(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(part.Name, m.Name) {
		t.Fatalf("partition name %q lost the model name", part.Name)
	}
}

func TestPartitionBySegments(t *testing.T) {
	m := residualNet()
	segs := m.Segments()
	lo, hi, err := SegmentRange(segs, 0, len(segs))
	if err != nil {
		t.Fatal(err)
	}
	part, err := m.Partition(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if part.NumLayers() != m.NumLayers() {
		t.Fatalf("whole-model partition has %d layers, want %d", part.NumLayers(), m.NumLayers())
	}
	if _, _, err := SegmentRange(segs, 1, 1); err == nil {
		t.Fatal("empty segment span accepted")
	}
}

func TestValidateRejectsDuplicateAndDanglingNames(t *testing.T) {
	in := &Layer{Name: "input", Kind: KindInput, OutShape: tensor.Shape{1, 2, 2, 3}}
	// Duplicate names must be rejected.
	l1 := &Layer{Name: "a", Kind: KindFlatten, Inputs: []string{"input"}, OutShape: tensor.Shape{1, 12}}
	l2 := &Layer{Name: "a", Kind: KindFlatten, Inputs: []string{"a"}, OutShape: tensor.Shape{1, 12}}
	if err := (&Model{Name: "dup", Layers: []*Layer{in, l1, l2}}).Validate(); err == nil {
		t.Fatal("duplicate layer names accepted")
	}
	// Dangling references must be rejected.
	l3 := &Layer{Name: "b", Kind: KindFlatten, Inputs: []string{"ghost"}, OutShape: tensor.Shape{1, 12}}
	if err := (&Model{Name: "dangling", Layers: []*Layer{in, l3}}).Validate(); err == nil {
		t.Fatal("dangling reference accepted")
	}
}

func TestKindAndActStrings(t *testing.T) {
	if KindConv2D.String() != "Conv2D" || KindAdd.String() != "Add" {
		t.Fatal("kind names wrong")
	}
	if Kind(999).String() != "Kind(999)" {
		t.Fatal("unknown kind fallback wrong")
	}
	if ActReLU6.String() != "relu6" || Act(99).String() != "Act(99)" {
		t.Fatal("act names wrong")
	}
}

func TestActivationBytes(t *testing.T) {
	l := &Layer{OutShape: tensor.Shape{1, 4, 4, 8}}
	if l.ActivationBytes() != 4*4*8*4 {
		t.Fatalf("activation bytes %d", l.ActivationBytes())
	}
}

func TestBuilderPanicsOnWrongRank(t *testing.T) {
	b := NewBuilder("bad", 8, 8, 3)
	flat := b.Flatten("flat", b.Input())
	cases := []func(){
		func() { b.Conv("c", flat, 4, 3, 3, 1, tensor.Same, ActNone) },
		func() { b.MaxPool("p", flat, 2, 2, tensor.Valid) },
		func() { b.GlobalAvgPool("g", flat) },
		func() { b.Dense("d", b.Input(), 10, ActNone) }, // rank-4 into dense
		func() { b.Add("a", ActNone, flat) },            // single input
		func() { b.Concat("cc", flat, flat) },           // rank-2 concat
		func() { b.Conv("c2", "missing", 4, 3, 3, 1, tensor.Same, ActNone) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
