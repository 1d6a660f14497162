package sim

import (
	"math/rand"
	"time"
)

// Source yields a workload's arrival offsets one at a time, in
// non-decreasing order, without ever materializing the full trace: a
// million-request Poisson source is one rng and two counters, not an
// 8 MB slice. PoissonSource is bit-compatible with internal/workload's
// slice generator — same seed, same offsets — which a cross-package
// equality test pins down; the other patterns arrive as slices.
type Source interface {
	// Next returns the next arrival offset, or ok=false when the trace
	// is exhausted.
	Next() (time.Duration, bool)
	// Remaining is how many arrivals Next has not yet yielded.
	Remaining() int
}

// maxOffset caps arrival offsets so float accumulation can never
// overflow the time.Duration range (keeping every trace non-negative and
// sorted even at degenerate rates like 5e-324 requests/second).
const maxOffset = time.Duration(1) << 62

// SliceSource adapts an already-materialized arrival trace.
type SliceSource struct {
	arrivals []time.Duration
	i        int
}

// NewSlice wraps a materialized arrival trace as a Source.
func NewSlice(arrivals []time.Duration) *SliceSource {
	return &SliceSource{arrivals: arrivals}
}

// Next implements Source.
func (s *SliceSource) Next() (time.Duration, bool) {
	if s.i >= len(s.arrivals) {
		return 0, false
	}
	a := s.arrivals[s.i]
	s.i++
	return a, true
}

// Remaining implements Source.
func (s *SliceSource) Remaining() int { return len(s.arrivals) - s.i }

// PoissonSource streams n arrival offsets with exponentially
// distributed inter-arrival gaps at ratePerSec requests per second,
// deterministic in seed. workload.PoissonArrivals materializes it.
type PoissonSource struct {
	rng  *rand.Rand
	rate float64
	left int
	t    float64
}

// NewPoisson creates a streaming Poisson arrival source. Non-positive
// (or NaN) rates fall back to one request per second.
func NewPoisson(n int, ratePerSec float64, seed int64) *PoissonSource {
	if n < 0 {
		n = 0
	}
	if !(ratePerSec > 0) { // also catches NaN
		ratePerSec = 1
	}
	return &PoissonSource{rng: rand.New(rand.NewSource(seed)), rate: ratePerSec, left: n}
}

// Next implements Source.
func (s *PoissonSource) Next() (time.Duration, bool) {
	if s.left <= 0 {
		return 0, false
	}
	s.left--
	s.t += s.rng.ExpFloat64() / s.rate
	if ns := s.t * float64(time.Second); ns < float64(maxOffset) {
		return time.Duration(ns), true
	}
	return maxOffset, true
}

// Remaining implements Source.
func (s *PoissonSource) Remaining() int { return s.left }
