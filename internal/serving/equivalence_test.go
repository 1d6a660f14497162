package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// deployModel builds a fresh deployment of the named zoo model on its
// own platform, meter and (optional) fault injector — the parameterized
// environment behind the equivalence property. Identical arguments
// produce byte-identical environments.
func deployModel(t testing.TB, build func(int) *nn.Model, faultRate float64, faultSeed int64, opts ...func(*coordinator.Config)) *testEnv {
	t.Helper()
	m := build(0)
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
	if faultRate > 0 {
		inj := faults.New(faults.Uniform(faultRate, faultSeed))
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
	if faultRate > 0 {
		retry := coordinator.DefaultRetryPolicy()
		retry.MaxAttempts = 8
		retry.JitterSeed = faultSeed
		cfg.Retry = retry
	}
	for _, o := range opts {
		o(&cfg)
	}
	meter.SetObserver(cfg.Tracer.RecordCost)
	dep, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Teardown)
	return &testEnv{meter: meter, pl: pl, tracer: cfg.Tracer, dep: dep, model: m}
}

// serveArtifacts runs one serve and captures every observable artifact:
// the rendered report, the JSON-marshalled span forest, the metrics
// snapshot and the meter total.
func serveArtifacts(t *testing.T, e *testEnv, cfg Config, n int, arrivals []time.Duration) (string, []byte, []byte, float64) {
	t.Helper()
	mx := obs.NewMetrics()
	cfg.Deployment = e.dep
	cfg.Metrics = mx
	rep, err := Serve(cfg, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := json.Marshal(rep.Traces())
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := mx.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return rep.Render(), traces, mb.Bytes(), e.meter.Total()
}

// TestDepthOneBatchOneEquivalence is the anchoring equivalence
// property: a serve configured with pipeline depth 1 and batch size 1
// is byte-identical — rendered report, span forest, metrics snapshot
// and meter total — to the sequential scheduler's zero-policy serve,
// across models × arrival traces × fault seeds. Depth 1 and batch 1
// mean "no overlap, no coalescing", so nothing about the run may move.
func TestDepthOneBatchOneEquivalence(t *testing.T) {
	models := []struct {
		name  string
		build func(int) *nn.Model
	}{
		{"tinycnn", zoo.TinyCNN},
		{"linearnet", zoo.LinearNet},
	}
	traces := []struct {
		name     string
		arrivals func(n int) []time.Duration
	}{
		{"poisson", func(n int) []time.Duration { return workload.PoissonArrivals(n, 2, 11) }},
		{"burst", func(n int) []time.Duration { return workload.BurstArrivals(n, 5, 400*time.Millisecond) }},
	}
	faultSeeds := []struct {
		rate float64
		seed int64
	}{
		{0, 0},
		{0.3, 31},
		{0.3, 47},
	}
	n := 10
	for _, m := range models {
		for _, tr := range traces {
			for _, f := range faultSeeds {
				name := fmt.Sprintf("%s/%s/fault%.0f@%d", m.name, tr.name, f.rate*100, f.seed)
				t.Run(name, func(t *testing.T) {
					base := Config{
						Throttle: ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
					}
					if f.rate > 0 {
						base.SLO = SLOPolicy{TolerateFailures: true}
					}
					arrivals := tr.arrivals(n)

					e1 := deployModel(t, m.build, f.rate, f.seed)
					e1.pl.SetAccountConcurrency(3 * e1.dep.Partitions())
					out1, traces1, mx1, total1 := serveArtifacts(t, e1, base, n, arrivals)

					neutral := base
					neutral.Pipeline = PipelinePolicy{Depth: 1}
					neutral.Batch = BatchPolicy{MaxBatch: 1, Window: time.Second, JitterSeed: 99}
					e2 := deployModel(t, m.build, f.rate, f.seed)
					e2.pl.SetAccountConcurrency(3 * e2.dep.Partitions())
					out2, traces2, mx2, total2 := serveArtifacts(t, e2, neutral, n, arrivals)

					if out1 != out2 {
						t.Errorf("rendered reports diverge:\n--- zero policy ---\n%s\n--- depth1/batch1 ---\n%s", out1, out2)
					}
					if !bytes.Equal(traces1, traces2) {
						t.Error("span forests diverge")
					}
					if !bytes.Equal(mx1, mx2) {
						t.Errorf("metrics snapshots diverge:\n%s\nvs\n%s", mx1, mx2)
					}
					if total1 != total2 {
						t.Errorf("meter totals diverge: %v vs %v", total1, total2)
					}
				})
			}
		}
	}
}

// TestPipelinedSingleRequestMatchesSequential: with a single request
// there is nothing to overlap, so the staged scheduler must reproduce
// the sequential scheduler's completion instant exactly and its cost to
// within one meter replay.
func TestPipelinedSingleRequestMatchesSequential(t *testing.T) {
	e1 := deployTiny(t, false)
	want, err := e1.dep.Run(randomInput(e1.model, 1), coordinator.RunOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	e2 := deployTiny(t, false)
	rep, err := Serve(Config{
		Deployment: e2.dep,
		Pipeline:   PipelinePolicy{Depth: 4},
	}, inputs(e2.model, 1), []time.Duration{0})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	if jr.Latency != want.Completion || jr.Done != want.Completion {
		t.Fatalf("pipelined lone request latency %v != sequential completion %v", jr.Latency, want.Completion)
	}
	if got, want := e2.meter.Total(), e1.meter.Total(); got != want {
		t.Fatalf("pipelined lone request meter %v != sequential meter %v", got, want)
	}
	if jr.Cost != want.Cost {
		t.Fatalf("pipelined lone request cost %v != sequential cost %v", jr.Cost, want.Cost)
	}
}
