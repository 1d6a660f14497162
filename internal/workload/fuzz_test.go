package workload

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// decodeDurations turns fuzz bytes into durations, 8 bytes apiece.
func decodeDurations(data []byte) []time.Duration {
	ds := make([]time.Duration, 0, len(data)/8)
	for len(data) >= 8 {
		ds = append(ds, time.Duration(int64(binary.LittleEndian.Uint64(data))))
		data = data[8:]
	}
	return ds
}

// percentile is SortedPercentile on a sorted copy of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return SortedPercentile(sorted, p)
}

// FuzzPercentile checks percentile's contract on arbitrary inputs: it
// never panics, returns 0 on an empty set and a member of the set
// otherwise, and is monotone in p. SortedPercentile over one sort of the
// set must return exactly what percentile does, and for 0 < p ≤ 100 both
// must be the nearest rank: fewer than ⌈p/100·n⌉ members lie below the
// result and at least that many at or below it.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{}, 50.0, 95.0)
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, 0.0, 100.0)
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 7, 0, 0, 0, 0, 0, 0, 0}, -5.0, 200.0)
	f.Add([]byte{42, 0, 0, 0, 0, 0, 0, 0}, math.NaN(), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, p, q float64) {
		ds := decodeDurations(data)
		vp := percentile(ds, p)
		vq := percentile(ds, q)
		sorted := slices.Clone(ds)
		slices.Sort(sorted)
		for _, r := range []float64{p, q, 50, 90, 95, 99} {
			got := SortedPercentile(sorted, r)
			if want := percentile(ds, r); got != want {
				t.Fatalf("SortedPercentile(p%.3g) = %v, percentile = %v", r, got, want)
			}
			if len(ds) == 0 || !(r > 0 && r <= 100) {
				continue
			}
			need := max(1, int(math.Ceil(r/100*float64(len(ds)))))
			below, atOrBelow := 0, 0
			for _, d := range ds {
				if d < got {
					below++
				}
				if d <= got {
					atOrBelow++
				}
			}
			if below >= need || atOrBelow < need {
				t.Fatalf("p%.3g = %v: %d members below, %d at or below, nearest rank %d", r, got, below, atOrBelow, need)
			}
		}
		if len(ds) == 0 {
			if vp != 0 || vq != 0 {
				t.Fatalf("percentile of empty set = %v, %v", vp, vq)
			}
			return
		}
		member := func(v time.Duration) bool {
			for _, d := range ds {
				if d == v {
					return true
				}
			}
			return false
		}
		if !member(vp) || !member(vq) {
			t.Fatalf("percentile %v / %v not drawn from the set %v", vp, vq, ds)
		}
		if !math.IsNaN(p) && !math.IsNaN(q) && p <= q && vp > vq {
			t.Fatalf("Percentile not monotone: p%.3g=%v > p%.3g=%v", p, vp, q, vq)
		}
	})
}

// FuzzArrivals checks every arrival generator on arbitrary (including
// degenerate) parameters: no panics, exact lengths, and non-negative
// sorted offsets — the preconditions serving schedulers rely on.
func FuzzArrivals(f *testing.F) {
	f.Add(10, 5.0, int64(1), int64(time.Second), 3, int64(time.Millisecond))
	f.Add(0, 0.0, int64(0), int64(0), 0, int64(0))
	f.Add(100, math.NaN(), int64(7), int64(-time.Hour), -4, int64(-time.Second))
	f.Add(17, 5e-324, int64(3), int64(math.MaxInt64), 1, int64(math.MaxInt64))
	f.Add(33, math.Inf(1), int64(-9), int64(42), 1000000, int64(1))
	f.Fuzz(func(t *testing.T, n int, rate float64, seed int64, windowNs int64, burst int, gapNs int64) {
		if n > 4096 {
			n = 4096 // bound allocation, not behaviour
		}
		check := func(kind string, got []time.Duration) {
			if n <= 0 {
				if got != nil {
					t.Fatalf("%s: n=%d produced %d offsets", kind, n, len(got))
				}
				return
			}
			if len(got) != n {
				t.Fatalf("%s: %d offsets for n=%d", kind, len(got), n)
			}
			for i, d := range got {
				if d < 0 {
					t.Fatalf("%s: negative offset %v at %d", kind, d, i)
				}
				if i > 0 && d < got[i-1] {
					t.Fatalf("%s: unsorted at %d: %v < %v", kind, i, d, got[i-1])
				}
			}
		}
		check("poisson", PoissonArrivals(n, rate, seed))
		check("uniform", UniformArrivals(n, time.Duration(windowNs)))
		check("burst", BurstArrivals(n, burst, time.Duration(gapNs)))
	})
}
