package workload

import (
	"math"
	"time"

	"ampsinf/internal/sim"
)

// maxOffset caps burst offsets so gap·bursts can never overflow the
// time.Duration range — the cap sim.PoissonSource puts on its offsets.
const maxOffset = time.Duration(1) << 62

// PoissonArrivals materializes sim.NewPoisson(n, ratePerSec, seed): n
// arrival offsets from time zero with exponentially distributed
// inter-arrival gaps at the given rate (requests per second),
// deterministic in seed and non-decreasing. Non-positive (or NaN) rates
// fall back to one request per second.
func PoissonArrivals(n int, ratePerSec float64, seed int64) []time.Duration {
	if n <= 0 {
		return nil
	}
	src := sim.NewPoisson(n, ratePerSec, seed)
	out := make([]time.Duration, n)
	for i := range out {
		out[i], _ = src.Next()
	}
	return out
}

// UniformArrivals spreads n arrivals evenly across the window. A
// non-positive window degenerates to n simultaneous arrivals at zero.
func UniformArrivals(n int, window time.Duration) []time.Duration {
	if n <= 0 {
		return nil
	}
	if window < 0 {
		window = 0
	}
	// Stepping by window/n (instead of multiplying window by i) keeps
	// every offset within [0, window] without int64 overflow.
	step := window / time.Duration(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = step * time.Duration(i)
	}
	return out
}

// BurstArrivals produces bursts of burstSize simultaneous requests every
// gap, n requests total. Non-positive burst sizes behave as 1; negative
// gaps as 0.
func BurstArrivals(n, burstSize int, gap time.Duration) []time.Duration {
	if n <= 0 {
		return nil
	}
	if burstSize <= 0 {
		burstSize = 1
	}
	if gap < 0 {
		gap = 0
	}
	bursts := (n - 1) / burstSize
	if bursts > 0 && gap > maxOffset/time.Duration(bursts) {
		gap = maxOffset / time.Duration(bursts)
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = gap * time.Duration(i/burstSize)
	}
	return out
}

// SortedPercentile returns the p-th percentile (0 < p ≤ 100) of
// durations already sorted ascending, by nearest rank, so several
// percentiles of one set cost one sort.
func SortedPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
