package serving

import (
	"runtime"
	"testing"
	"time"

	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// TestServeStreamSteadyStateAllocs pins the hot path's allocation
// behavior for both executors: with metrics and a time series attached
// (the production configuration), a fully-warmed streaming serve must
// run its steady state allocation-free. Fixed per-run costs are real
// (the latency reservoir, the report, first-touch pool growth), so the
// test measures the marginal allocations between two run lengths — the
// per-request slope, not the intercept — and requires it to be zero.
func TestServeStreamSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are only meaningful in production builds")
	}
	for _, c := range []struct {
		name     string
		pipeline PipelinePolicy
		batch    BatchPolicy
		// bound leaves room for the O(log n) terms a doubled run length
		// legitimately adds: heap and free-list slice doublings plus slab
		// chunk-table growth — a handful of allocations, not per-request.
		// The staged executor additionally stacks each batch's inputs into
		// a fresh tensor — tensor.Stack's 4 allocations per batch, measured
		// 2.00 allocs/request at MaxBatch 2 — and nothing else.
		bound float64
	}{
		{name: "whole-job", bound: 0.01},
		{name: "staged", pipeline: PipelinePolicy{Depth: 4}, batch: BatchPolicy{MaxBatch: 2}, bound: 2.01},
	} {
		t.Run(c.name, func(t *testing.T) {
			steadyStateAllocs(t, c.pipeline, c.batch, c.bound)
		})
	}
}

func steadyStateAllocs(t *testing.T, pipeline PipelinePolicy, batch BatchPolicy, bound float64) {
	measure := func(n int) float64 {
		e := deployWide(t, 16)
		e.pl.SetAccountConcurrency(256)
		in := randomInput(e.model, 1)
		mx := obs.NewMetrics()
		// One giant window: frame emission is per-window (not
		// per-request) and stays out of the steady-state count.
		ts := obs.NewTimeSeries(time.Hour)
		defer ts.Close()
		cfg := Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
			Pipeline:   pipeline,
			Batch:      batch,
			Metrics:    mx,
			Series:     ts,
		}
		run := func() {
			rep, err := ServeStream(cfg, sim.NewPoisson(n, 100, 7), func(int) *tensor.Tensor { return in })
			if err != nil {
				t.Fatal(err)
			}
			if rep.Completed != n {
				t.Fatalf("completed %d of %d", rep.Completed, n)
			}
		}
		run() // warm pools, slabs, container fleet, handle slots
		return testing.AllocsPerRun(2, run)
	}
	const n1, n2 = 1500, 3000
	a1 := measure(n1)
	a2 := measure(n2)
	perReq := (a2 - a1) / float64(n2-n1)
	if perReq > bound {
		t.Fatalf("steady-state allocations: %.4f allocs/request (runs: %.0f @ %d, %.0f @ %d)",
			perReq, a1, n1, a2, n2)
	}
}

// TestServeStreamSteadyFullTelemetryAllocs is the same pin on the whole
// request: storm_steady's environment (steadyStorm — telemetry on the
// platform, the store and the coordinator as well, 1 s windows), where
// every layer's write sections, handle tables and meter slots are live.
// It counts everything a fresh 100k-request storm allocates — cold
// starts, pool growth and one frame per window included — which comes to
// 0.12 mallocs per request; a single allocation per request anywhere on
// the path would show as 1.
func TestServeStreamSteadyFullTelemetryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a 100k-request storm")
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are only meaningful in production builds")
	}
	const n = 100_000
	cfg, m := steadyStorm(t, time.Second)
	in := randomInput(m, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := ServeStream(cfg, sim.NewPoisson(n, 100, 7), func(int) *tensor.Tensor { return in })
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	perReq := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.3f mallocs per request", perReq)
	if perReq > 0.25 {
		t.Fatalf("steady storm allocates %.3f objects per request; budget is 0.25", perReq)
	}
}
