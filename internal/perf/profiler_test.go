package perf

import (
	"testing"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
)

// The planner profiles spans with SpanProfiler.Profile in place of
// profilePartition; plan byte-identity rests on the two being exactly
// equal, so the test demands bit-for-bit equality, not approximation.
// (The per-block time formula's fast form is the optimizer's block-grid
// kernel, pinned to EndToEndTime by that package's TestGridKernelMatchesSpec.)

func TestSpanProfilerMatchesProfilePartition(t *testing.T) {
	for _, name := range []string{"tinycnn", "linearnet", "mobilenet", "resnet50", "inceptionv3", "bertbase"} {
		m, err := zoo.Build(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		segs := m.Segments()
		sp := NewSpanProfiler(m, segs)
		for a := 0; a < len(segs); a++ {
			for b := a + 1; b <= len(segs); b++ {
				want := profilePartition(m, segs, a, b)
				if got := sp.Profile(a, b); got != want {
					t.Fatalf("%s span [%d,%d): %+v != %+v", name, a, b, got, want)
				}
			}
		}
	}
}

// profilePartition aggregates a consecutive segment span [sLo, sHi) of a
// model into a SegmentProfile by walking the span: the O(span)
// reference SpanProfiler.Profile must equal.
func profilePartition(m *nn.Model, segs []nn.Segment, sLo, sHi int) SegmentProfile {
	var p SegmentProfile
	for i := sLo; i < sHi; i++ {
		s := segs[i]
		p.Layers += s.Layers
		p.FLOPs += s.FLOPs
		p.WeightsBytes += s.WeightBytes()
		if s.PeakActBytes > p.PeakActBytes {
			p.PeakActBytes = s.PeakActBytes
		}
	}
	if sLo == 0 {
		p.InBytes = int64(m.InputShape.Elems()) * 4
	} else {
		p.InBytes = segs[sLo-1].OutBytes
	}
	p.OutBytes = segs[sHi-1].OutBytes
	return p
}
