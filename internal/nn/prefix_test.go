package nn

import (
	"math/rand"
	"testing"
)

// randomSegments builds a synthetic segment list with adversarial peaks
// (strictly increasing, strictly decreasing, duplicates).
func randomSegments(n int, seed int64) []Segment {
	rng := rand.New(rand.NewSource(seed))
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{
			Layers:       1 + rng.Intn(7),
			Params:       rng.Int63n(1 << 20),
			FLOPs:        rng.Int63n(1 << 30),
			OutBytes:     rng.Int63n(1 << 22),
			PeakActBytes: rng.Int63n(1 << 24),
		}
	}
	return segs
}

func TestSegmentPrefixMatchesDirectLoops(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 31, 64, 100} {
		segs := randomSegments(n, int64(n))
		p := NewSegmentPrefix(segs)
		if got := len(p.layers) - 1; got != n {
			t.Fatalf("n=%d: %d segments covered", n, got)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b <= n; b++ {
				var layers int
				var params, flops, peak int64
				for i := a; i < b; i++ {
					layers += segs[i].Layers
					params += segs[i].Params
					flops += segs[i].FLOPs
					if segs[i].PeakActBytes > peak {
						peak = segs[i].PeakActBytes
					}
				}
				if got := p.Layers(a, b); got != layers {
					t.Fatalf("n=%d Layers(%d,%d) = %d, want %d", n, a, b, got, layers)
				}
				if got := p.Params(a, b); got != params {
					t.Fatalf("n=%d Params(%d,%d) = %d, want %d", n, a, b, got, params)
				}
				if got := p.FLOPs(a, b); got != flops {
					t.Fatalf("n=%d FLOPs(%d,%d) = %d, want %d", n, a, b, got, flops)
				}
				if got := p.MaxPeakAct(a, b); got != peak {
					t.Fatalf("n=%d MaxPeakAct(%d,%d) = %d, want %d", n, a, b, got, peak)
				}
			}
		}
	}
}

func TestSegmentPrefixEmptySpan(t *testing.T) {
	p := NewSegmentPrefix(randomSegments(5, 1))
	if got := p.MaxPeakAct(3, 3); got != 0 {
		t.Fatalf("empty span max = %d, want 0", got)
	}
	if got := p.Layers(2, 2); got != 0 {
		t.Fatalf("empty span layers = %d, want 0", got)
	}
}

func TestSegmentPrefixMonotonePeaks(t *testing.T) {
	// Strictly increasing and strictly decreasing peaks hit both halves
	// of the sparse-table max.
	for _, dir := range []int{1, -1} {
		segs := make([]Segment, 33)
		for i := range segs {
			segs[i].PeakActBytes = int64(1000 + dir*i)
		}
		p := NewSegmentPrefix(segs)
		for a := 0; a < len(segs); a++ {
			for b := a + 1; b <= len(segs); b++ {
				want := segs[a].PeakActBytes
				for i := a; i < b; i++ {
					if segs[i].PeakActBytes > want {
						want = segs[i].PeakActBytes
					}
				}
				if got := p.MaxPeakAct(a, b); got != want {
					t.Fatalf("dir=%d MaxPeakAct(%d,%d) = %d, want %d", dir, a, b, got, want)
				}
			}
		}
	}
}
