package serving

import (
	"bytes"
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

// deployOverloadPair builds a primary deployment plus its 4-bit
// quantized fallback on one platform/meter/tracer, with a fault
// injector installed — the full brownout-capable topology.
func deployOverloadPair(t testing.TB, fcfg faults.Config, mutate func(cfg *coordinator.Config)) (*testEnv, *coordinator.Deployment) {
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
	inj := faults.New(fcfg)
	pl.SetInjector(inj)
	store.SetInjector(inj)
	inj.SetClock(pl.Now)
	cfg := coordinator.Config{
		Platform:    pl,
		Store:       store,
		SkipCompute: true,
		Tracer:      obs.NewTracer(),
		NamePrefix:  "primary",
	}
	retry := coordinator.DefaultRetryPolicy()
	retry.MaxAttempts = 6
	retry.JitterSeed = fcfg.Seed
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
	fcfg2 := cfg
	fcfg2.NamePrefix = "fallback"
	fcfg2.QuantizeBits = 4
	fb, err := coordinator.Deploy(fcfg2, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fb.Teardown)
	return &testEnv{meter: meter, pl: pl, tracer: cfg.Tracer, dep: dep, model: m, store: store}, fb
}

// An exhausted global retry budget surfaces as a typed, tolerated
// outcome, its spend folds into WastedSpend, and the span-replay cost
// identity (SumCostsAll ≡ meter total) survives the new outcome.
func TestServeBudgetExhaustedCostIdentity(t *testing.T) {
	e := deployResilient(t, 0.5, 431, func(cfg *coordinator.Config) {
		cfg.Budget = coordinator.BudgetPolicy{MaxTokens: 1, EarnPerSuccess: 0.01}
	})
	e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
	n := 16
	rep, err := Serve(Config{
		Deployment: e.dep,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
		SLO:        SLOPolicy{TolerateFailures: true},
	}, inputs(e.model, n), workload.PoissonArrivals(n, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BudgetExhausted == 0 {
		t.Fatalf("a one-token budget under 50%% faults never exhausted: %+v", rep)
	}
	if rep.BudgetDenied == 0 {
		t.Fatal("budget exhaustion recorded but no denied attempts counted")
	}
	if got := rep.Completed + rep.Shed + rep.Deadline + rep.Throttled + rep.Failed + rep.BudgetExhausted; got != n {
		t.Fatalf("outcomes partition %d of %d requests: %+v", got, n, rep)
	}
	saw := false
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Outcome == OutcomeBudgetExhausted {
			saw = true
		}
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !saw {
		t.Fatal("report counts budget exhaustion but no job carries the outcome")
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v with budget exhaustion", got, want)
	}
	if rep.WastedSpend <= 0 {
		t.Fatalf("budget-exhausted requests burned attempts but wasted spend is %v", rep.WastedSpend)
	}
	if out := rep.Summary(); !strings.Contains(out, "retry budget") {
		t.Fatalf("summary missing retry-budget line:\n%s", out)
	}
}

// The brownout ladder's fallback rung swaps admissions onto the
// quantized deployment; every dollar either deployment bills stays
// span-attributed and the meter identity holds across the swap.
func TestBrownoutFallbackSwapCostIdentity(t *testing.T) {
	e, fb := deployOverloadPair(t, faults.Uniform(0.5, 97), nil)
	e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
	mx := obs.NewMetrics()
	series := obs.NewTimeSeries(250 * time.Millisecond)
	n := 32
	rep, err := Serve(Config{
		Deployment: e.dep,
		Fallback:   fb,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
		SLO:        SLOPolicy{TolerateFailures: true},
		Metrics:    mx,
		Series:     series,
		Brownout: BrownoutPolicy{
			Enabled: true, MinJobs: 1, BadFraction: 0.05,
			StepUpAfter: 1, StepDownAfter: 100, MaxLevel: BrownoutFallback,
		},
	}, inputs(e.model, n), workload.PoissonArrivals(n, 8, 29))
	series.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.FallbackServed == 0 {
		t.Fatalf("ladder capped at fallback under 50%% faults never swapped plans: %+v", rep)
	}
	if rep.BrownoutDeepest != BrownoutFallback {
		t.Fatalf("deepest level %s, want %s",
			BrownoutLevelName(rep.BrownoutDeepest), BrownoutLevelName(BrownoutFallback))
	}
	if rep.BrownoutTransitions == 0 {
		t.Fatal("fallback reached without any recorded ladder transitions")
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v across the plan swap", got, want)
	}
	if out := rep.Summary(); !strings.Contains(out, "brownout") {
		t.Fatalf("summary missing brownout line:\n%s", out)
	}
}

// Hard shed: at the ladder's deepest rung admissions are rejected
// before any invocation, so brownout-shed requests bill nothing, and
// the shed counter is separate from SLO shedding so the rung does not
// feed its own health trigger.
func TestBrownoutHardShedBillsNothing(t *testing.T) {
	e, fb := deployOverloadPair(t, faults.Uniform(0.6, 131), nil)
	e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
	series := obs.NewTimeSeries(200 * time.Millisecond)
	n := 40
	rep, err := Serve(Config{
		Deployment: e.dep,
		Fallback:   fb,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
		SLO:        SLOPolicy{TolerateFailures: true},
		Series:     series,
		Brownout: BrownoutPolicy{
			Enabled: true, MinJobs: 1, BadFraction: 0.05,
			StepUpAfter: 1, StepDownAfter: 100,
		},
	}, inputs(e.model, n), workload.PoissonArrivals(n, 10, 53))
	series.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BrownoutShed == 0 {
		t.Fatalf("an uncapped ladder under 60%% faults never hard-shed: %+v", rep)
	}
	shed := 0
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Outcome == OutcomeShed && jr.Cost != 0 {
			t.Fatalf("shed request %d billed $%v", i, jr.Cost)
		}
		if jr.Outcome == OutcomeShed {
			shed++
		}
	}
	// BrownoutShed is a subset of Shed: every hard-shed request carries
	// OutcomeShed, and its own counter only separates the health triggers.
	if shed != rep.Shed {
		t.Fatalf("shed outcomes %d != report Shed %d", shed, rep.Shed)
	}
	if rep.BrownoutShed > rep.Shed {
		t.Fatalf("brownout shed %d exceeds total shed %d", rep.BrownoutShed, rep.Shed)
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v under hard shed", got, want)
	}
}

// overloadArtifacts runs the full protection stack — budget, brownout
// ladder, quantized fallback, domain-outage storms — and returns every
// externally observable byte.
func overloadArtifacts(t *testing.T) (string, []byte, []byte, float64) {
	t.Helper()
	fcfg := faults.Uniform(0.3, 211)
	fcfg.Domains = 3
	fcfg.DomainOutageEvery = 2 * time.Second
	fcfg.DomainOutageLength = 500 * time.Millisecond
	e, fb := deployOverloadPair(t, fcfg, func(cfg *coordinator.Config) {
		cfg.Budget = coordinator.BudgetPolicy{MaxTokens: 4, EarnPerSuccess: 0.5}
	})
	e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
	mx := obs.NewMetrics()
	series := obs.NewTimeSeries(250 * time.Millisecond)
	n := 48
	rep, err := Serve(Config{
		Deployment: e.dep,
		Fallback:   fb,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
		SLO:        SLOPolicy{TolerateFailures: true},
		Metrics:    mx,
		Series:     series,
		Brownout: BrownoutPolicy{
			Enabled: true, MinJobs: 2, BadFraction: 0.2,
			StepUpAfter: 1, StepDownAfter: 2,
		},
	}, inputs(e.model, n), workload.PoissonArrivals(n, 6, 71))
	if err != nil {
		t.Fatal(err)
	}
	series.Close()
	var mb, sb bytes.Buffer
	if err := mx.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := series.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return rep.Summary(), mb.Bytes(), sb.Bytes(), e.meter.Total()
}

// Two same-seed runs of the whole overload-protection stack must be
// byte-identical: summaries, metrics snapshots, window streams and
// meter totals. Budget spends, ladder transitions, plan swaps and
// domain-outage purges all ride the deterministic event loop.
func TestOverloadStackSameSeedByteIdentical(t *testing.T) {
	sum1, mx1, ts1, total1 := overloadArtifacts(t)
	sum2, mx2, ts2, total2 := overloadArtifacts(t)
	if sum1 != sum2 {
		t.Errorf("summaries diverge across same-seed runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", sum1, sum2)
	}
	if !bytes.Equal(mx1, mx2) {
		t.Errorf("metrics snapshots diverge:\n%s\nvs\n%s", mx1, mx2)
	}
	if !bytes.Equal(ts1, ts2) {
		t.Errorf("time-series streams diverge across same-seed runs")
	}
	if total1 != total2 {
		t.Errorf("meter totals diverge: %v vs %v", total1, total2)
	}
}
