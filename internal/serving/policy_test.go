package serving

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPipelinePolicyValidate(t *testing.T) {
	if err := (PipelinePolicy{}).Validate(); err != nil {
		t.Fatalf("zero policy rejected: %v", err)
	}
	if err := (PipelinePolicy{Depth: 8}).Validate(); err != nil {
		t.Fatalf("depth 8 rejected: %v", err)
	}
	if err := (PipelinePolicy{Depth: -1}).Validate(); err == nil {
		t.Fatal("negative depth accepted")
	}
	if (PipelinePolicy{Depth: 1}).enabled() {
		t.Fatal("depth 1 counts as pipelining")
	}
	if !(PipelinePolicy{Depth: 2}).enabled() {
		t.Fatal("depth 2 does not count as pipelining")
	}
}

func TestBatchPolicyValidate(t *testing.T) {
	if err := (BatchPolicy{}).Validate(); err != nil {
		t.Fatalf("zero policy rejected: %v", err)
	}
	if err := (BatchPolicy{MaxBatch: -1}).Validate(); err == nil {
		t.Fatal("negative batch size accepted")
	}
	if err := (BatchPolicy{MaxBatch: 2, Window: -time.Second}).Validate(); err == nil {
		t.Fatal("negative window accepted")
	}
	if (BatchPolicy{MaxBatch: 1}).enabled() {
		t.Fatal("batch size 1 counts as batching")
	}
}

// TestSplitCostExact pins the exact-reconstruction contract on hand
// picked cases the fuzz target then generalizes.
func TestSplitCostExact(t *testing.T) {
	cases := []struct {
		total float64
		n     int
	}{
		{0, 1}, {0, 5},
		{0.00012345, 1}, {0.00012345, 2}, {0.00012345, 3},
		{1.0 / 3.0, 7},
		{math.Pi * 1e-6, 4},
		{5e-324, 3},
		{123456.789, 10},
	}
	for _, c := range cases {
		shares := splitCostInto(make([]float64, c.n), c.total)
		if len(shares) != c.n {
			t.Fatalf("splitCostInto(%v, %d) returned %d shares", c.total, c.n, len(shares))
		}
		var acc float64
		for _, s := range shares {
			acc += s
		}
		if acc != c.total {
			t.Fatalf("splitCostInto(%v, %d) folds to %v", c.total, c.n, acc)
		}
	}
}

func TestBatchWindowBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		w := batchWindow(BatchPolicy{Window: time.Second}, rng)
		if w < time.Second/2 || w > time.Second {
			t.Fatalf("window %v outside [500ms, 1s]", w)
		}
	}
	// Zero window falls back to the default.
	w := batchWindow(BatchPolicy{}, rng)
	if w < defaultBatchWindow/2 || w > defaultBatchWindow {
		t.Fatalf("default window %v outside [%v, %v]", w, defaultBatchWindow/2, defaultBatchWindow)
	}
}

func TestSatAdd(t *testing.T) {
	if got := satAdd(time.Second, time.Second); got != 2*time.Second {
		t.Fatalf("satAdd plain = %v", got)
	}
	if got := satAdd(math.MaxInt64-1, 10); got != math.MaxInt64 {
		t.Fatalf("satAdd near-overflow = %v, want saturation", got)
	}
	if got := satAdd(5, -3); got != 5 {
		t.Fatalf("satAdd ignores non-positive deltas, got %v", got)
	}
}

// TestCoalesceShapes pins the coalescer's grouping on explicit traces.
func TestCoalesceShapes(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(3)) }
	sec := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Second
		}
		return out
	}

	// Disabled batching: one unit per request at its own arrival.
	units := coalesce(sec(0, 1, 2), BatchPolicy{}, rng())
	if len(units) != 3 {
		t.Fatalf("disabled batching formed %d units", len(units))
	}
	for i, u := range units {
		if u.First != i || u.Size != 1 || u.DispatchAt != time.Duration(i)*time.Second {
			t.Fatalf("unit %d = %+v", i, u)
		}
	}

	// A burst inside the window coalesces and dispatches when full.
	units = coalesce(sec(0, 0, 0, 0), BatchPolicy{MaxBatch: 4, Window: 10 * time.Second}, rng())
	if len(units) != 1 || units[0].Size != 4 {
		t.Fatalf("burst formed %+v", units)
	}
	if units[0].DispatchAt != 0 {
		t.Fatalf("full batch of simultaneous arrivals dispatches at %v, want 0", units[0].DispatchAt)
	}

	// A partial batch holds the queue open for its whole window.
	units = coalesce(sec(0, 100), BatchPolicy{MaxBatch: 4, Window: 10 * time.Second}, rng())
	if len(units) != 2 {
		t.Fatalf("distant arrivals formed %d units", len(units))
	}
	if units[0].DispatchAt < 5*time.Second || units[0].DispatchAt > 10*time.Second {
		t.Fatalf("partial batch dispatches at %v, want within its jittered window", units[0].DispatchAt)
	}

	// MaxBatch caps a long burst into consecutive full batches.
	units = coalesce(sec(0, 0, 0, 0, 0), BatchPolicy{MaxBatch: 2, Window: time.Second}, rng())
	if len(units) != 3 || units[0].Size != 2 || units[1].Size != 2 || units[2].Size != 1 {
		t.Fatalf("capped burst formed %+v", units)
	}
}

// coalesce groups an arrival trace into batch units in one pass — the
// reference the scheduler's incremental coalescer (pipeline.go) matches
// draw for draw. The leader of each
// batch is the earliest uncoalesced request; followers join while the
// batch has room and they arrive inside the leader's jittered window.
// Batches are contiguous in arrival order, so every request lands in
// exactly one unit and units dispatch in leader order. With batching
// disabled every request is its own unit at its own arrival.
func coalesce(arrivals []time.Duration, pol BatchPolicy, rng *rand.Rand) []batchUnit {
	units := make([]batchUnit, 0, len(arrivals))
	if !pol.enabled() {
		for i, a := range arrivals {
			units = append(units, batchUnit{First: i, Size: 1, DispatchAt: a})
		}
		return units
	}
	for i := 0; i < len(arrivals); {
		win := batchWindow(pol, rng)
		deadline := satAdd(arrivals[i], win)
		j := i + 1
		for j < len(arrivals) && j-i < pol.MaxBatch && arrivals[j] <= deadline {
			j++
		}
		u := batchUnit{First: i, Size: j - i}
		if u.Size == pol.MaxBatch {
			// Full batch dispatches the moment its last member arrives.
			u.DispatchAt = arrivals[j-1]
		} else {
			u.DispatchAt = deadline
		}
		units = append(units, u)
		i = j
	}
	return units
}
