package serving

import (
	"runtime"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// deployWide deploys LinearNet with a partition cap high enough that
// the whole chain fits in few partitions — the regime the throughput
// benchmarks want (scheduler overhead, not partition count, under
// test). Compute is skipped; invocation timing and billing still run.
func deployWide(t testing.TB, maxLayers int) *testEnv {
	t.Helper()
	m := zoo.LinearNet(8)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: maxLayers,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	cfg := coordinator.Config{
		Platform:    pl,
		Store:       store,
		SkipCompute: true,
		Tracer:      obs.NewTracer(),
	}
	meter.SetObserver(cfg.Tracer.RecordCost)
	dep, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Teardown)
	return &testEnv{meter: meter, pl: pl, tracer: cfg.Tracer, dep: dep, model: m}
}

// BenchmarkSimMillionRequests is the discrete-event core's headline
// number: one million Poisson requests served end to end — admission,
// backoff, container pool, billing — through the streaming sequential
// scheduler, with metrics and a windowed time series attached to
// serving. The whole trace never materializes; per-request results
// fold into the summary as they settle. Read it at -benchtime=1x: the
// deployment is reused across b.N, so a second iteration replays its
// arrivals in the past of a platform clock that never rewinds.
func BenchmarkSimMillionRequests(b *testing.B) {
	const n = 1_000_000
	e := deployWide(b, 16)
	e.pl.SetAccountConcurrency(256)
	in := randomInput(e.model, 1)
	mx := obs.NewMetrics()
	ts := obs.NewTimeSeries(time.Second)
	defer ts.Close()
	cfg := Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
		Metrics:    mx,
		Series:     ts,
	}
	var lastThrottles int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ServeStream(cfg, sim.NewPoisson(n, 100, 7), func(int) *tensor.Tensor { return in })
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
		lastThrottles = rep.Throttles
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(lastThrottles)/float64(n), "throttles/req")
}

// BenchmarkServeSequential50 pins the retained (non-streaming) serve
// path for comparison: span trees on, per-request results kept.
func BenchmarkServeSequential50(b *testing.B) {
	n := 50
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i) * 5 * time.Millisecond
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := deployWide(b, 16)
		e.pl.SetAccountConcurrency(256)
		ins := inputs(e.model, n)
		b.StartTimer()
		if _, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
		}, ins, arrivals); err != nil {
			b.Fatal(err)
		}
	}
}

// chaosStorm is bench/storm.go's storm_chaos configuration at a fifth
// of its size: three partitions, 5 % uniform faults with 6× bursts,
// retries, percentile hedging, breaker, global budget, an 8-deep
// pipeline with 4-wide batches and a shedding SLO, metrics and a 1 s
// series attached. Each call deploys afresh, as each benchmark unit does.
const chaosStormRequests = 20_000

func chaosStorm(t testing.TB) (Config, *nn.Model) {
	t.Helper()
	dcfg, m, plan, store := stormCloud(t, 3, time.Second)
	pl := dcfg.Platform
	fc := faults.Uniform(0.05, 11)
	fc.BurstEvery, fc.BurstLength, fc.BurstFactor = 20*time.Second, 4*time.Second, 6
	inj := faults.New(fc)
	pl.SetInjector(inj)
	store.SetInjector(inj)
	inj.SetClock(pl.Now)
	dcfg.Retry = coordinator.DefaultRetryPolicy()
	dcfg.Retry.MaxAttempts, dcfg.Retry.JitterSeed = 5, 12
	dcfg.Hedge = coordinator.HedgePolicy{Percentile: 95, Delay: 2 * time.Second, JitterSeed: 13}
	dcfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 8}
	dcfg.Budget = coordinator.BudgetPolicy{MaxTokens: 64, EarnPerSuccess: 0.25}
	cfg := deployStorm(t, dcfg, m, plan)
	cfg.Pipeline = PipelinePolicy{Depth: 8}
	cfg.Batch = BatchPolicy{MaxBatch: 4, Window: 200 * time.Millisecond, JitterSeed: 5}
	cfg.SLO = SLOPolicy{Deadline: 60 * time.Second, Shed: true, TolerateFailures: true}
	return cfg, m
}

// stormCloud is the private cloud each bench/storm.go unit builds:
// LinearNet(8) planned at maxLayers per partition, a fresh meter,
// platform (account concurrency 256) and store, and one registry plus
// one series of the given window attached to all of them — telemetry on
// every layer a request crosses, not on serving alone.
func stormCloud(t testing.TB, maxLayers int, window time.Duration) (coordinator.Config, *nn.Model, *optimizer.Plan, *s3.Store) {
	t.Helper()
	m := zoo.LinearNet(8)
	plan, err := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: maxLayers})
	if err != nil {
		t.Fatal(err)
	}
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	mx := obs.NewMetrics()
	ts := obs.NewTimeSeries(window)
	pl.SetMetrics(mx)
	pl.SetSeries(ts)
	store.SetMetrics(mx)
	pl.SetAccountConcurrency(256)
	return coordinator.Config{Platform: pl, Store: store, SkipCompute: true, Metrics: mx, Series: ts}, m, plan, store
}

// deployStorm deploys onto a stormCloud and returns the serving config
// both storms share.
func deployStorm(t testing.TB, dcfg coordinator.Config, m *nn.Model, plan *optimizer.Plan) Config {
	t.Helper()
	dep, err := coordinator.Deploy(dcfg, m, nn.InitWeights(m, 42), plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Teardown(); dcfg.Series.Close() })
	return Config{
		Deployment: dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
		Metrics:    dcfg.Metrics, Series: dcfg.Series,
	}
}

// steadyStorm is bench/storm.go's storm_steady configuration: one
// partition, the whole-job executor, no faults, full telemetry.
func steadyStorm(t testing.TB, window time.Duration) (Config, *nn.Model) {
	t.Helper()
	dcfg, m, plan, _ := stormCloud(t, 16, window)
	return deployStorm(t, dcfg, m, plan), m
}

// BenchmarkServeStreamSteady is storm_steady at two fifths of its size:
// unlike BenchmarkSimMillionRequests, whose telemetry hangs off serving
// alone, every layer writes its metrics, so the profile is a real
// request's.
func BenchmarkServeStreamSteady(b *testing.B) {
	const n = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, m := steadyStorm(b, time.Second)
		in := randomInput(m, 1)
		b.StartTimer()
		rep, err := ServeStream(cfg, sim.NewPoisson(n, 100, 7), func(int) *tensor.Tensor { return in })
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != n {
			b.Fatalf("completed %d of %d", rep.Completed, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// serveChaosStorm streams the chaos storm once through a fresh
// deployment and returns the host heap's growth in bytes and objects
// across the ServeStream call.
func serveChaosStorm(t testing.TB, cfg Config, m *nn.Model) (bytes, mallocs uint64) {
	t.Helper()
	in := randomInput(m, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := ServeStream(cfg, sim.NewPoisson(chaosStormRequests, 1, 7), func(int) *tensor.Tensor { return in })
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hedges == 0 || rep.Retries == 0 || rep.Shed == 0 {
		t.Fatalf("storm left the chaos regime: hedges %d retries %d shed %d", rep.Hedges, rep.Retries, rep.Shed)
	}
	return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
}

// BenchmarkServeStreamChaos is the only in-module benchmark with
// hedging on: the staged, batched, retried and hedged path the paper's
// deployments take, which the other storms bypass.
func BenchmarkServeStreamChaos(b *testing.B) {
	var mallocs uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, m := chaosStorm(b)
		b.StartTimer()
		_, n := serveChaosStorm(b, cfg, m)
		mallocs += n
	}
	total := float64(chaosStormRequests) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(mallocs)/total, "mallocs/req")
}

// BenchmarkServeStreamChaosBrownout is the chaos storm with the
// brownout controller on: every flushed window is judged through the
// serving handles' typed reads, and no frame is built for it.
func BenchmarkServeStreamChaosBrownout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, m := chaosStorm(b)
		cfg.Brownout = BrownoutPolicy{Enabled: true, P99: 30 * time.Second}
		b.StartTimer()
		serveChaosStorm(b, cfg, m)
	}
	b.ReportMetric(float64(chaosStormRequests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// TestServeStreamChaosAllocBudget keeps the chaos storm's host
// allocation per request under a ceiling, so a per-attempt or
// per-window allocation (a sort, an unsized map) cannot creep back in
// unnoticed: 3.1 KB and 33.9 mallocs per request before the hedge-delay
// percentile and the window flush were made allocation-flat, 1.6 KB and
// 13.3 while every flushed window was a frame of four maps, ~0.8 KB and
// 4.1 since windows are packed log records and failed units format no
// error text. The budget is that plus ~15 %.
func TestServeStreamChaosAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a 20k-request storm")
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are only meaningful in production builds")
	}
	cfg, m := chaosStorm(t)
	chaosAllocBudget(t, cfg, m, 925, 4.75)
}

// TestServeStreamChaosBrownoutAllocBudget is a ceiling on the same
// storm with the brownout ladder on: 2.0 KB and 12.6 mallocs per
// request while the controller subscribed to the series and every
// flushed window was built into a frame for it; since it reads windows
// through its handles, ~0.8 KB and 4.1, as without the ladder. The
// budget, 950 B and 6, fails the frame-per-window controller by 2×.
func TestServeStreamChaosBrownoutAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a 20k-request storm")
	}
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are only meaningful in production builds")
	}
	cfg, m := chaosStorm(t)
	cfg.Brownout = BrownoutPolicy{Enabled: true, P99: 30 * time.Second}
	chaosAllocBudget(t, cfg, m, 950, 6)
}

// chaosAllocBudget serves the chaos storm once and fails if it
// allocated more than maxB bytes or maxN objects per request.
func chaosAllocBudget(t *testing.T, cfg Config, m *nn.Model, maxB, maxN float64) {
	t.Helper()
	bytes, mallocs := serveChaosStorm(t, cfg, m)
	perReqB, perReqN := float64(bytes)/chaosStormRequests, float64(mallocs)/chaosStormRequests
	t.Logf("%.0f B and %.1f mallocs per request", perReqB, perReqN)
	if perReqB > maxB || perReqN > maxN {
		t.Fatalf("chaos storm allocates %.0f B and %.1f mallocs per request; budget is %.0f B and %.2f", perReqB, perReqN, maxB, maxN)
	}
}

// TestChaosStormSeriesConservesCounts: the window log loses and invents
// nothing. One registry and one series sit on every layer of a chaos
// storm with retention off, and after Close every counter written to
// both sums over the frames to the registry's final value, every
// histogram's frame counts sum to its registry count, window indices
// strictly increase, and the window holding the last completion — the
// final partial one — is there.
func TestChaosStormSeriesConservesCounts(t *testing.T) {
	cfg, m := chaosStorm(t)
	in := randomInput(m, 1)
	rep, err := ServeStream(cfg, sim.NewPoisson(chaosStormRequests, 1, 7), func(int) *tensor.Tensor { return in })
	if err != nil {
		t.Fatal(err)
	}
	cfg.Series.Close()
	frames := cfg.Series.Frames()
	counters, hists := map[string]int64{}, map[string]int64{}
	last := int64(-1)
	for _, f := range frames {
		if f.Index <= last {
			t.Fatalf("window %d follows window %d", f.Index, last)
		}
		last = f.Index
		for name, v := range f.Counters {
			counters[name] += v
		}
		for name, h := range f.Hists {
			hists[name] += h.Count
		}
	}
	if final := int64(rep.Makespan / cfg.Series.Window()); last != final {
		t.Fatalf("last window %d, but the last completion lands in window %d", last, final)
	}
	snap := cfg.Metrics.Snapshot()
	shared := 0
	for name, sum := range counters {
		if want, ok := snap.Counters[name]; ok {
			shared++
			if sum != want {
				t.Errorf("counter %s: Σ frames %d, registry %d", name, sum, want)
			}
		}
	}
	for name, sum := range hists {
		if h, ok := snap.Histograms[name]; ok {
			shared++
			if sum != h.Count {
				t.Errorf("histogram %s: Σ frame counts %d, registry %d", name, sum, h.Count)
			}
		}
	}
	t.Logf("%d metrics in both; %d windows, last %d, makespan window %d", shared, len(frames), last, int64(rep.Makespan/cfg.Series.Window()))
	if shared < 10 {
		t.Fatalf("only %d metrics are written to both the registry and the series", shared)
	}
	if counters["serving_jobs_total"] != int64(rep.Completed) {
		t.Fatalf("Σ serving_jobs_total %d, report completed %d", counters["serving_jobs_total"], rep.Completed)
	}
}
