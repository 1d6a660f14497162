package perf

import (
	"testing"

	"ampsinf/internal/nn/zoo"
)

// The fast planner path substitutes SpanProfiler.Profile for
// ProfilePartition; plan byte-identity rests on the two being exactly
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
				want := ProfilePartition(m, segs, a, b)
				if got := sp.Profile(a, b); got != want {
					t.Fatalf("%s span [%d,%d): %+v != %+v", name, a, b, got, want)
				}
			}
		}
	}
}
