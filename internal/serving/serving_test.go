package serving

import (
	"math/rand"
	"strings"
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
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// testEnv is one independent deployment on its own platform and meter.
type testEnv struct {
	meter  *billing.Meter
	pl     *lambda.Platform
	tracer *obs.Tracer
	dep    *coordinator.Deployment
	model  *nn.Model
	store  *s3.Store // set by deployOverloadPair only
}

// deployTiny builds a fresh multi-partition TinyCNN deployment.
// Identical calls produce byte-identical environments, so serving runs
// over two of them are comparable bit-for-bit.
func deployTiny(t testing.TB, retry bool) *testEnv {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 2 {
		t.Fatalf("expected a multi-partition plan, got %d", len(plan.Lambdas))
	}
	w := nn.InitWeights(m, 42)
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	cfg := coordinator.Config{
		Platform:    pl,
		Store:       s3.New(s3.DefaultConfig(), meter),
		SkipCompute: true,
		Tracer:      obs.NewTracer(),
	}
	if retry {
		cfg.Retry = coordinator.DefaultRetryPolicy()
	}
	meter.SetObserver(cfg.Tracer.RecordCost)
	dep, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Teardown)
	return &testEnv{meter: meter, pl: pl, tracer: cfg.Tracer, dep: dep, model: m}
}

func randomInput(m *nn.Model, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	return in
}

func inputs(m *nn.Model, n int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = randomInput(m, int64(i+1))
	}
	return out
}

// TestServeSingleJobMatchesCoordinator is the anchoring property: a
// one-request serve reproduces today's coordinator run on a fresh
// deployment — same cost and same timeline, bit for bit — in both
// scheduling modes.
func TestServeSingleJobMatchesCoordinator(t *testing.T) {
	for _, seq := range []bool{false, true} {
		e1 := deployTiny(t, false)
		in := randomInput(e1.model, 1)
		var want *coordinator.Report
		var err error
		if seq {
			want, err = e1.dep.RunSequential(in)
		} else {
			want, err = e1.dep.RunEager(in)
		}
		if err != nil {
			t.Fatal(err)
		}

		e2 := deployTiny(t, false)
		rep, err := Serve(Config{Deployment: e2.dep, Sequential: seq},
			inputs(e2.model, 1), []time.Duration{0})
		if err != nil {
			t.Fatal(err)
		}
		jr := rep.Jobs[0]
		if jr.Cost != want.Cost {
			t.Fatalf("seq=%v: serve cost %v != coordinator cost %v", seq, jr.Cost, want.Cost)
		}
		if jr.Latency != want.Completion || jr.Done != want.Completion {
			t.Fatalf("seq=%v: serve latency %v != completion %v", seq, jr.Latency, want.Completion)
		}
		if jr.Queue != 0 || jr.Throttles != 0 {
			t.Fatalf("seq=%v: lone request queued %v, throttled %d", seq, jr.Queue, jr.Throttles)
		}
		if got, want := e2.meter.Total(), e1.meter.Total(); got != want {
			t.Fatalf("seq=%v: serve meter %v != coordinator meter %v", seq, got, want)
		}
	}
}

// TestServeConcurrentWithinLimit: at zero fault rate, N concurrent
// requests never exceed the account concurrency limit, and every
// request is served.
func TestServeConcurrentWithinLimit(t *testing.T) {
	e := deployTiny(t, false)
	width := e.dep.Partitions()
	limit := 3 * width
	e.pl.SetAccountConcurrency(limit)

	n := 12
	arrivals := workload.BurstArrivals(n, 4, 500*time.Millisecond)
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
	}, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakInFlight > limit {
		t.Fatalf("peak in-flight %d exceeds account limit %d", rep.PeakInFlight, limit)
	}
	if len(rep.Jobs) != n {
		t.Fatalf("%d jobs reported", len(rep.Jobs))
	}
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Done <= jr.Start || jr.Start < jr.Arrival {
			t.Fatalf("request %d has inconsistent timeline %+v", i, jr)
		}
		if jr.Queue != jr.Start-jr.Arrival || jr.Latency != jr.Done-jr.Arrival {
			t.Fatalf("request %d mis-attributed queueing: %+v", i, jr)
		}
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestServeCostAttribution: the total billed on the shared meter equals
// the cost replayed from every request's span tree, bit for bit, and
// the per-request marginal costs sum to the same total within float
// accumulation error.
func TestServeCostAttribution(t *testing.T) {
	e := deployTiny(t, false)
	e.pl.SetAccountConcurrency(2 * e.dep.Partitions())
	n := 8
	arrivals := workload.PoissonArrivals(n, 2, 11)
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 5},
	}, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v", got, want)
	}
	var sum float64
	for i := range rep.Jobs {
		sum += rep.Jobs[i].Cost
	}
	if diff := sum - rep.TotalCost; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("per-job costs sum %v != report total %v", sum, rep.TotalCost)
	}
	if diff := rep.TotalCost - e.meter.Total(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("report total %v far from meter %v", rep.TotalCost, e.meter.Total())
	}
}

// TestServeThrottleAndRetry: with the account limit below the trace's
// peak parallelism, at least one request is throttled (429) and then
// served after backing off — the wait shows up in its queueing delay
// and span tree.
func TestServeThrottleAndRetry(t *testing.T) {
	e := deployTiny(t, false)
	width := e.dep.Partitions()
	e.pl.SetAccountConcurrency(width) // one job at a time

	n := 4
	arrivals := workload.BurstArrivals(n, n, 0) // all at once
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 9},
	}, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Throttles == 0 {
		t.Fatal("no throttles despite limit below peak parallelism")
	}
	throttled := 0
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Throttles == 0 {
			continue
		}
		throttled++
		if jr.ThrottleWait <= 0 || jr.Queue < jr.ThrottleWait {
			t.Fatalf("request %d throttled %d times but waited %v (queue %v)",
				i, jr.Throttles, jr.ThrottleWait, jr.Queue)
		}
		found := false
		jr.Trace.Walk(func(s *obs.Span) {
			if s.Name == "throttle-backoff" {
				found = true
			}
		})
		if !found {
			t.Fatalf("request %d has no throttle-backoff span", i)
		}
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if throttled == 0 {
		t.Fatal("report counts throttles but no job records one")
	}
}

// TestServeUnderFaults: serving composes with the fault-injection and
// retry machinery — jobs absorb injected faults, every request still
// completes, and the span-replayed cost still matches the meter.
func TestServeUnderFaults(t *testing.T) {
	e := deployTiny(t, true)
	e.pl.SetInjector(faults.New(faults.Uniform(0.15, 21)))
	n := 6
	arrivals := workload.UniformArrivals(n, 3*time.Second)
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 13},
	}, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v under faults", got, want)
	}
}

// TestServeDeterministic1000 is the acceptance experiment: a 1000-job
// Poisson trace served on one shared platform, with the account limit
// below peak parallelism, renders byte-identically across two fresh
// runs and demonstrates throttles that were retried to completion.
func TestServeDeterministic1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-job trace")
	}
	// Calibrate the arrival rate off a warm probe job so the trace keeps
	// ~20 jobs in service on average.
	probe := deployTiny(t, false)
	if _, err := probe.dep.RunEager(randomInput(probe.model, 1)); err != nil {
		t.Fatal(err)
	}
	prep, err := probe.dep.RunEager(randomInput(probe.model, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	rate := 20 / prep.Completion.Seconds()
	arrivals := workload.PoissonArrivals(n, rate, 77)

	run := func(limit int) (*Report, string, float64) {
		e := deployTiny(t, false)
		if limit > 0 {
			e.pl.SetAccountConcurrency(limit)
		}
		rep, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 1},
		}, inputs(e.model, n), arrivals)
		if err != nil {
			t.Fatal(err)
		}
		return rep, rep.Render(), e.meter.Total()
	}

	// Calibration pass under the default (unreachable) limit measures the
	// trace's true peak parallelism; serving under a limit below it must
	// then throttle at least once.
	calib, _, _ := run(0)
	limit := calib.PeakInFlight * 3 / 4
	if w := deployTiny(t, false).dep.Partitions(); limit < w {
		limit = w
	}
	rep1, out1, total1 := run(limit)
	_, out2, total2 := run(limit)
	if out1 != out2 {
		i := 0
		for i < len(out1) && i < len(out2) && out1[i] == out2[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("reports diverge at byte %d: %q vs %q", i, clip(out1, lo, i+80), clip(out2, lo, i+80))
	}
	if total1 != total2 {
		t.Fatalf("meter totals diverge: %v vs %v", total1, total2)
	}
	if rep1.Throttles == 0 {
		t.Fatalf("no throttle despite limit %d below peak parallelism %d", limit, calib.PeakInFlight)
	}
	if rep1.PeakInFlight > limit {
		t.Fatalf("peak in-flight %d exceeded the limit %d", rep1.PeakInFlight, limit)
	}
	if got, want := obs.SumCostsAll(rep1.Traces()), total1; got != want {
		t.Fatalf("span-replayed cost %v != meter total %v", got, want)
	}
	if !strings.Contains(out1, "throttles") {
		t.Fatal("render missing throttle line")
	}
}

func clip(s string, lo, hi int) string {
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestServeValidation covers the error paths.
func TestServeValidation(t *testing.T) {
	e := deployTiny(t, false)
	in := inputs(e.model, 2)
	if _, err := Serve(Config{}, in, []time.Duration{0, 0}); err == nil {
		t.Fatal("nil deployment accepted")
	}
	if _, err := Serve(Config{Deployment: e.dep}, nil, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := Serve(Config{Deployment: e.dep}, in, []time.Duration{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Serve(Config{Deployment: e.dep}, in, []time.Duration{time.Second, 0}); err == nil {
		t.Fatal("unsorted arrivals accepted")
	}
	// Limit below one job's width: admission can never succeed.
	e.pl.SetAccountConcurrency(e.dep.Partitions() - 1)
	if _, err := Serve(Config{Deployment: e.dep, Throttle: ThrottlePolicy{MaxAttempts: 3}},
		in, []time.Duration{0, 0}); err == nil {
		t.Fatal("unservable width accepted")
	}
}

// BenchmarkServeThroughput measures end-to-end scheduler throughput
// over a 64-request Poisson trace (jobs/sec of simulated serving work
// per wall second, reported as requests processed per op and as
// requests handled per wall-clock second).
func BenchmarkServeThroughput(b *testing.B) {
	n := 64
	arrivals := workload.PoissonArrivals(n, 10, 7)
	total := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := deployTiny(b, false)
		e.pl.SetAccountConcurrency(8 * e.dep.Partitions())
		ins := inputs(e.model, n)
		b.StartTimer()
		rep, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 1},
		}, ins, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		total += len(rep.Jobs)
	}
	b.ReportMetric(float64(total)/float64(b.N), "requests/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(total)/s, "req/s")
	}
}
