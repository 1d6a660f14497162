package serving

import (
	"math"
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
	"ampsinf/internal/workload"
)

// deployResilient builds a fresh TinyCNN deployment with a seeded fault
// injector (rate 0 = clean) and resilience knobs layered onto a
// resilient retry policy via mutate.
func deployResilient(t testing.TB, rate float64, seed int64, mutate func(cfg *coordinator.Config)) *testEnv {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	if rate > 0 {
		inj := faults.New(faults.Uniform(rate, seed))
		pl.SetInjector(inj)
		store.SetInjector(inj)
		inj.SetClock(pl.Now)
	}
	cfg := coordinator.Config{
		Platform:    pl,
		Store:       store,
		SkipCompute: true,
		Tracer:      obs.NewTracer(),
	}
	retry := coordinator.DefaultRetryPolicy()
	retry.MaxAttempts = 8
	retry.JitterSeed = seed
	cfg.Retry = retry
	if mutate != nil {
		mutate(&cfg)
	}
	meter.SetObserver(cfg.Tracer.RecordCost)
	dep, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Teardown)
	return &testEnv{meter: meter, pl: pl, tracer: cfg.Tracer, dep: dep, model: m}
}

// cleanCompletion measures one clean eager job's completion on a fresh
// deployment, for sizing deadlines.
func cleanCompletion(t *testing.T) time.Duration {
	t.Helper()
	e := deployResilient(t, 0, 0, nil)
	rep, err := e.dep.RunEager(randomInput(e.model, 1))
	if err != nil {
		t.Fatal(err)
	}
	return rep.Completion
}

// Serve must reject invalid policies up front.
func TestServeRejectsInvalidPolicies(t *testing.T) {
	e := deployResilient(t, 0, 0, nil)
	in := inputs(e.model, 1)
	arr := []time.Duration{0}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"throttle max < base", Config{Throttle: ThrottlePolicy{BaseBackoff: time.Second, MaxBackoff: time.Millisecond}}},
		{"shed without a deadline", Config{SLO: SLOPolicy{Shed: true}}},
		{"negative deadline", Config{SLO: SLOPolicy{Deadline: -time.Second}}},
		{"NaN sample rate", Config{Sample: SamplePolicy{Rate: math.NaN()}}},
		{"NaN bad fraction", Config{
			Brownout: BrownoutPolicy{Enabled: true, BadFraction: math.NaN()},
			Series:   obs.NewTimeSeries(time.Second),
		}},
	} {
		c.cfg.Deployment = e.dep
		if _, err := Serve(c.cfg, in, arr); err == nil {
			t.Errorf("Serve accepted %s", c.name)
		}
	}
}

// With a deadline far beyond every completion, the SLO layer changes no
// timing or billing: only the report's SLO accounting differs.
func TestServeGenerousDeadlineKeepsResults(t *testing.T) {
	n := 6
	run := func(slo SLOPolicy) *Report {
		// Default (ample) account concurrency: under a tight limit, a 20%
		// fault rate can hang enough containers to starve the account.
		e := deployResilient(t, 0.2, 99, nil)
		rep, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 5},
			SLO:        slo,
		}, inputs(e.model, n), workload.PoissonArrivals(n, 2, 11))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(SLOPolicy{})
	slo := run(SLOPolicy{Deadline: time.Hour, Shed: true})
	if slo.Completed != n || slo.Good != n || slo.Shed != 0 {
		t.Fatalf("generous deadline shed or failed requests: %+v", slo)
	}
	for i := range base.Jobs {
		a, b := base.Jobs[i], slo.Jobs[i]
		if a.Latency != b.Latency || a.Cost != b.Cost || a.Done != b.Done {
			t.Fatalf("request %d diverged under a generous deadline:\n%+v\n%+v", i, a, b)
		}
	}
}

// Under a concurrency bottleneck with a tight deadline, admission
// control sheds hopeless requests: explicit outcome, zero charge, and
// the run keeps serving the rest.
func TestServeShedsHopelessRequests(t *testing.T) {
	clean := cleanCompletion(t)
	e := deployResilient(t, 0, 0, nil)
	e.pl.SetAccountConcurrency(e.dep.Partitions()) // one job at a time
	n := 8
	arrivals := make([]time.Duration, n) // all at t=0: the queue is doomed
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 7},
		SLO:        SLOPolicy{Deadline: 2 * clean, Shed: true},
	}, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("doomed burst shed nothing: %+v", rep)
	}
	if rep.Completed == 0 {
		t.Fatal("shedding drained the whole burst")
	}
	if rep.Completed+rep.Shed+rep.Deadline+rep.Throttled+rep.Failed != n {
		t.Fatalf("outcomes do not partition the trace: %+v", rep)
	}
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Outcome == OutcomeShed {
			if jr.Cost != 0 {
				t.Fatalf("shed request %d billed $%v", i, jr.Cost)
			}
			if jr.Trace == nil || jr.Trace.Attrs["outcome"] != OutcomeShed {
				t.Fatalf("shed request %d missing outcome attr on its span", i)
			}
		}
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v under shedding", got, want)
	}
	out := rep.Render()
	if !strings.Contains(out, "outcome=shed") || !strings.Contains(out, "outcomes: ok") {
		t.Fatalf("render missing shed reporting:\n%s", out)
	}
}

// Deadline propagation: mid-run, the coordinator fails a request fast
// once retries cannot fit its remaining budget; the run keeps going and
// every dollar the failed request burned is still span-attributed.
func TestServeDeadlineFailuresAndCostIdentity(t *testing.T) {
	clean := cleanCompletion(t)
	e := deployResilient(t, 0.5, 321, nil)
	e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
	n := 12
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
		SLO:        SLOPolicy{Deadline: clean + clean/4, TolerateFailures: true},
	}, inputs(e.model, n), workload.PoissonArrivals(n, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadline == 0 && rep.Failed == 0 {
		t.Fatalf("50%% faults under a tight deadline failed nothing: %+v", rep)
	}
	sawDeadline := false
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Outcome == OutcomeDeadline {
			sawDeadline = true
			if jr.Err == "" || !strings.Contains(jr.Err, "deadline") {
				t.Fatalf("deadline failure %d lost its error: %+v", i, jr)
			}
		}
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v with deadline failures", got, want)
	}
	if rep.WastedSpend <= 0 && (rep.Deadline > 0 || rep.Failed > 0) {
		t.Fatalf("failures recorded but no wasted spend: %+v", rep)
	}
	if !sawDeadline && rep.Deadline > 0 {
		t.Fatal("report counts deadline failures but no job carries the outcome")
	}
}

// TolerateFailures turns terminal job errors into recorded outcomes:
// the same storm that aborts a strict run completes a tolerant one.
func TestServeToleratesFailures(t *testing.T) {
	run := func(tolerate bool) (*Report, error) {
		e := deployResilient(t, 0.85, 13, func(cfg *coordinator.Config) {
			cfg.Retry.MaxAttempts = 2
		})
		e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
		n := 10
		return Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 9},
			SLO:        SLOPolicy{TolerateFailures: tolerate},
		}, inputs(e.model, n), workload.PoissonArrivals(n, 2, 23))
	}
	if _, err := run(false); err == nil {
		t.Fatal("strict run absorbed an 85% fault storm with 2 attempts")
	}
	rep, err := run(true)
	if err != nil {
		t.Fatalf("tolerant run aborted: %v", err)
	}
	if rep.Failed == 0 {
		t.Fatalf("tolerant run recorded no failures: %+v", rep)
	}
	if rep.WastedSpend <= 0 {
		t.Fatal("failed requests billed nothing — fault charges lost")
	}
}

// Same deployment, seeds and trace ⇒ byte-identical render, with the
// full resilience stack on.
func TestServeResilientRunsDeterministic(t *testing.T) {
	clean := cleanCompletion(t)
	run := func() string {
		e := deployResilient(t, 0.4, 55, func(cfg *coordinator.Config) {
			cfg.Hedge = coordinator.HedgePolicy{Delay: time.Millisecond, MaxRate: 0.5, JitterSeed: 5}
			cfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 4}
		})
		e.pl.SetAccountConcurrency(3 * e.dep.Partitions())
		n := 10
		rep, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 5},
			SLO:        SLOPolicy{Deadline: 3 * clean, Shed: true, TolerateFailures: true},
		}, inputs(e.model, n), workload.PoissonArrivals(n, 3, 29))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("resilient serving diverged across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// Acceptance: a 1000-request serve run with hedging, breakers and
// shedding all enabled renders byte-identically run over run, and the
// summed span costs still reproduce the meter total bit-for-bit.
func TestServeThousandRequestsDeterministic(t *testing.T) {
	clean := cleanCompletion(t)
	run := func() string {
		e := deployResilient(t, 0.25, 77, func(cfg *coordinator.Config) {
			cfg.Hedge = coordinator.HedgePolicy{
				Percentile: 95, Delay: clean, MaxRate: 0.3, JitterSeed: 7,
			}
			cfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 5}
		})
		n := 1000
		rep, err := Serve(Config{
			Deployment: e.dep,
			Throttle:   ThrottlePolicy{JitterSeed: 7},
			SLO:        SLOPolicy{Deadline: 4 * clean, Shed: true, TolerateFailures: true},
		}, inputs(e.model, n), workload.PoissonArrivals(n, 50, 29))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
			t.Fatalf("span costs $%.12f != meter total $%.12f", got, want)
		}
		return rep.Render()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("1000-request resilient serve diverged across identical runs")
	}
}

// Property (satellite): the serving admission backoff lies in the
// equal-jitter window [w/2, w] across seeds and attempts, capped at
// MaxBackoff — the same contract as the coordinator's backoff.
func TestPropertyAdmissionBackoffWithinWindow(t *testing.T) {
	p := ThrottlePolicy{BaseBackoff: 80 * time.Millisecond, MaxBackoff: 3 * time.Second}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for n := 1; n <= 12; n++ {
			w := float64(p.BaseBackoff)
			for i := 1; i < n; i++ {
				w *= 2
				if w >= float64(p.MaxBackoff) {
					w = float64(p.MaxBackoff)
					break
				}
			}
			got := backoff(p, n, rng)
			if got < time.Duration(w/2) || got > time.Duration(w) {
				t.Fatalf("seed %d attempt %d: backoff %v outside [%v, %v]", seed, n, got, time.Duration(w/2), time.Duration(w))
			}
			if got > p.MaxBackoff {
				t.Fatalf("seed %d attempt %d: backoff %v exceeds MaxBackoff", seed, n, got)
			}
		}
	}
}
