package serving

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// FuzzSplitCost drives the batch cost-splitting rule with arbitrary
// totals (including subnormals, huge magnitudes and negatives) and
// member counts: the shares must fold left back to the exact total —
// no lost and no double-billed fractions — and every share must stay
// finite when the total is.
func FuzzSplitCost(f *testing.F) {
	f.Add(0.0, 1)
	f.Add(0.0125, 2)
	f.Add(1e-9, 3)
	f.Add(3.14159e4, 7)
	f.Add(5e-324, 5)  // min subnormal: even shares round to zero
	f.Add(1.7e308, 9) // near MaxFloat64
	f.Add(-0.25, 4)   // negative totals split symmetrically
	f.Add(1.0, 0)     // degenerate member counts
	f.Add(1.0, -3)
	f.Add(0.001, 1000)
	f.Fuzz(func(t *testing.T, total float64, n int) {
		if n > 1<<16 {
			n %= 1 << 16 // bound the allocation, not the property
		}
		if n <= 0 {
			return // a batch has at least one member
		}
		shares := splitCostInto(make([]float64, n), total)
		if len(shares) != n {
			t.Fatalf("splitCostInto(%v, %d) returned %d shares", total, n, len(shares))
		}
		if math.IsNaN(total) || math.IsInf(total, 0) {
			return // nothing to reconstruct from a non-finite invoice
		}
		var acc float64
		for i, s := range shares {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("share %d of splitCostInto(%v, %d) is %v", i, total, n, s)
			}
			acc += s
		}
		if acc != total {
			t.Fatalf("splitCostInto(%v, %d): shares fold to %v (diff %g)", total, n, acc, acc-total)
		}
	})
}

// FuzzBatchWindow drives the coalescing-window computation with
// arbitrary configured windows (including negatives and values near the
// Duration range) and jitter draws (including NaN and extremes): the
// result must always land in [0, w] and never wrap through the float
// round-trip, like FuzzHedgeDelay for hedge delays.
func FuzzBatchWindow(f *testing.F) {
	f.Add(int64(0), 0.5)
	f.Add(int64(time.Second), 0.0)
	f.Add(int64(time.Second), 0.999999)
	f.Add(int64(-time.Hour), 0.25)
	f.Add(int64(1<<62), 1.5)
	f.Add(int64(math.MaxInt64), 0.9999999)
	f.Add(int64(1), -7.25)
	f.Add(int64(time.Minute), math.NaN())
	f.Add(int64(time.Minute), math.Inf(1))
	f.Fuzz(func(t *testing.T, wNs int64, u float64) {
		w := time.Duration(wNs)
		got := batchWindowFrom(w, u)
		if got < 0 {
			t.Fatalf("batchWindowFrom(%v, %v) = %v is negative", w, u, got)
		}
		if w <= 0 {
			if got != 0 {
				t.Fatalf("batchWindowFrom(%v, %v) = %v, want 0 for non-positive window", w, u, got)
			}
			return
		}
		if got > w {
			t.Fatalf("batchWindowFrom(%v, %v) = %v exceeds the window", w, u, got)
		}
		// In-range jitter draws keep at least the deterministic half,
		// up to float64 mantissa rounding on windows near the Duration
		// range (52 significant bits on a 63-bit value).
		if slack := w>>50 + 1; u >= 0 && u < 1 && got < w/2-slack {
			t.Fatalf("batchWindowFrom(%v, %v) = %v undershoots w/2", w, u, got)
		}
	})
}

// fuzzArrivals decodes a byte string into a sorted arrival trace: each
// byte adds a 50 ms-granularity gap, with 0xFF adding a quarter of the
// Duration range so saturation paths get exercised.
func fuzzArrivals(data []byte) []time.Duration {
	if len(data) > 200 {
		data = data[:200]
	}
	arrivals := make([]time.Duration, 0, len(data))
	var at time.Duration
	for _, b := range data {
		if b == 0xFF {
			at = satAdd(at, 1<<61)
		} else {
			at = satAdd(at, time.Duration(b)*50*time.Millisecond)
		}
		arrivals = append(arrivals, at)
	}
	return arrivals
}

// FuzzCoalesce drives the batch coalescer with arbitrary arrival
// traces, batch sizes, windows and jitter seeds: the units must always
// form an exact contiguous partition of the requests (every request in
// exactly one batch — no lost and no double-dispatched members), sizes
// must respect MaxBatch, dispatch instants must cover every member and
// stay in dispatch order, and the whole computation must be
// deterministic per seed.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{}, 4, int64(time.Second), int64(1))
	f.Add([]byte{0, 0, 0, 0}, 4, int64(time.Second), int64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 3, int64(2*time.Second), int64(9))
	f.Add([]byte{0xFF, 0, 0xFF, 0}, 2, int64(1<<62), int64(7))
	f.Add([]byte{10, 10, 10}, 0, int64(0), int64(0))
	f.Add([]byte{5, 5, 5, 5}, 1, int64(-1), int64(3))
	f.Add([]byte{200, 200, 1, 1, 1}, 8, int64(math.MaxInt64), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, maxBatch int, windowNs, seed int64) {
		if windowNs < 0 {
			windowNs = 0
		}
		pol := BatchPolicy{MaxBatch: maxBatch, Window: time.Duration(windowNs), JitterSeed: seed}
		if pol.Validate() != nil {
			return
		}
		arrivals := fuzzArrivals(data)
		units := coalesce(arrivals, pol, rand.New(rand.NewSource(seed)))
		again := coalesce(arrivals, pol, rand.New(rand.NewSource(seed)))
		if len(units) != len(again) {
			t.Fatalf("coalesce not deterministic: %d vs %d units", len(units), len(again))
		}
		for i := range units {
			if units[i] != again[i] {
				t.Fatalf("coalesce not deterministic at unit %d: %+v vs %+v", i, units[i], again[i])
			}
		}
		covered := 0
		prevDispatch := time.Duration(math.MinInt64)
		for i, u := range units {
			if u.First != covered {
				t.Fatalf("unit %d starts at %d, want %d (lost or duplicated member)", i, u.First, covered)
			}
			if u.Size < 1 {
				t.Fatalf("unit %d has size %d", i, u.Size)
			}
			if pol.enabled() && u.Size > pol.MaxBatch {
				t.Fatalf("unit %d size %d exceeds MaxBatch %d", i, u.Size, pol.MaxBatch)
			}
			if !pol.enabled() && u.Size != 1 {
				t.Fatalf("unit %d size %d with batching disabled", i, u.Size)
			}
			for k := 0; k < u.Size; k++ {
				if arrivals[u.First+k] > u.DispatchAt {
					t.Fatalf("unit %d dispatches at %v before member %d arrives at %v",
						i, u.DispatchAt, u.First+k, arrivals[u.First+k])
				}
			}
			if u.DispatchAt < prevDispatch {
				t.Fatalf("unit %d dispatches at %v before unit %d at %v", i, u.DispatchAt, i-1, prevDispatch)
			}
			prevDispatch = u.DispatchAt
			covered += u.Size
		}
		if covered != len(arrivals) {
			t.Fatalf("units cover %d of %d requests", covered, len(arrivals))
		}
	})
}
