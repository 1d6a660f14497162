package obs

import "testing"

func TestSamplerDeterministic(t *testing.T) {
	a := NewSampler(42, 0.3)
	b := NewSampler(42, 0.3)
	diffSeed := NewSampler(43, 0.3)
	same, differs := true, false
	for i := uint64(0); i < 10_000; i++ {
		if a.Keep(i) != b.Keep(i) {
			same = false
		}
		if a.Keep(i) != diffSeed.Keep(i) {
			differs = true
		}
	}
	if !same {
		t.Fatal("same-seed samplers disagreed")
	}
	if !differs {
		t.Fatal("different seeds kept the exact same set — hash not mixing the seed")
	}
}

func TestSamplerEdgeRates(t *testing.T) {
	var nilSampler *Sampler
	all := NewSampler(1, 1)
	none := NewSampler(1, 0)
	for i := uint64(0); i < 1000; i++ {
		if !nilSampler.Keep(i) {
			t.Fatal("nil sampler must keep everything")
		}
		if !all.Keep(i) {
			t.Fatal("rate 1 must keep everything")
		}
		if none.Keep(i) {
			t.Fatal("rate 0 must keep nothing")
		}
	}
}

// The kept fraction over many indexes must track the configured rate
// (unbiased hash), and the kept sets must nest: everything kept at rate
// r is also kept at any higher rate with the same seed, since the
// per-index draw is shared and only the threshold moves.
func TestSamplerProportionAndNesting(t *testing.T) {
	const n = 100_000
	lo := NewSampler(7, 0.1)
	hi := NewSampler(7, 0.5)
	kept := 0
	for i := uint64(0); i < n; i++ {
		if lo.Keep(i) {
			kept++
			if !hi.Keep(i) {
				t.Fatalf("index %d kept at 0.1 but dropped at 0.5", i)
			}
		}
	}
	frac := float64(kept) / n
	if frac < 0.09 || frac > 0.11 {
		t.Fatalf("kept fraction %v far from rate 0.1", frac)
	}
}
