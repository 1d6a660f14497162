package experiments

import (
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
	"ampsinf/internal/serving"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// TestChaosDomainStorm streams a Poisson storm through the full
// overload-protection stack — global retry budget, brownout ladder,
// quantized fallback plan — while whole failure domains drop every two
// simulated seconds. `make chaos` runs it under the race detector:
// domain purges, mid-flight kills, budget spends/earns, ladder
// transitions and window flushes all interleave on one event loop. The
// assertions pin accounting closure (every request gets exactly one
// outcome, costs stay non-negative and inside the meter) and that the
// storm actually fired, not tuned outcomes.
func TestChaosDomainStorm(t *testing.T) {
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	m := zoo.LinearNet(8)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	fcfg := faults.Uniform(0.10, ResilienceSeed)
	fcfg.Domains = 3
	fcfg.DomainOutageEvery = 2 * time.Second
	fcfg.DomainOutageLength = 500 * time.Millisecond
	inj := faults.New(fcfg)
	pl.SetInjector(inj)
	store.SetInjector(inj)
	inj.SetClock(pl.Now)
	tracer := obs.NewTracer()
	meter.SetObserver(tracer.RecordCost)
	cfg := coordinator.Config{
		Platform: pl, Store: store, SkipCompute: true, Tracer: tracer,
		NamePrefix: "storm",
		Budget:     coordinator.BudgetPolicy{MaxTokens: 64, EarnPerSuccess: 0.25},
	}
	retry := coordinator.DefaultRetryPolicy()
	retry.MaxAttempts = 6
	retry.JitterSeed = ResilienceSeed
	cfg.Retry = retry
	dep, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Teardown()
	fcfg2 := cfg
	fcfg2.NamePrefix = "storm-fallback"
	fcfg2.QuantizeBits = 4
	fb, err := coordinator.Deploy(fcfg2, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Teardown()
	pl.SetAccountConcurrency(256)
	in := workload.Images(m, 1, 7)[0]
	mx := obs.NewMetrics()
	pl.SetMetrics(mx)
	series := obs.NewTimeSeries(time.Second)
	defer series.Close()

	rep, err := serving.ServeStream(serving.Config{
		Deployment: dep,
		Fallback:   fb,
		Throttle:   serving.ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
		SLO:        serving.SLOPolicy{TolerateFailures: true},
		Metrics:    mx,
		Series:     series,
		Brownout: serving.BrownoutPolicy{
			Enabled: true, BadFraction: 0.3, StepUpAfter: 2, StepDownAfter: 2,
		},
	}, sim.NewPoisson(n, 100, 7), func(int) *tensor.Tensor { return in })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n || len(rep.Jobs) != 0 {
		t.Fatalf("stream run: requests %d (want %d), retained %d jobs (want 0)",
			rep.Requests, n, len(rep.Jobs))
	}
	settled := rep.Completed + rep.Shed + rep.Deadline + rep.Throttled +
		rep.Failed + rep.BudgetExhausted
	if settled != n {
		t.Fatalf("outcomes settle %d of %d requests: %+v", settled, n, rep)
	}
	if rep.Completed == 0 {
		t.Fatal("the storm drowned every request; the stack should degrade, not die")
	}
	if got := mx.Snapshot().Counters[`lambda_faults_total{kind="domain-outage"}`]; got == 0 {
		t.Error("no domain-outage faults fired; widen the storm windows")
	}
	if rep.TotalCost <= 0 || meter.Total() < rep.TotalCost {
		t.Errorf("cost accounting broken: report %v, meter %v", rep.TotalCost, meter.Total())
	}
	if rep.WastedSpend < 0 {
		t.Errorf("negative wasted spend %v", rep.WastedSpend)
	}
}
