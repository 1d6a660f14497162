package core

import (
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cloud/redis"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/serving"
	"ampsinf/internal/tensor"
)

// Deploy owns the wiring: a config that names a platform or a telemetry
// sink is refused, and nothing is deployed.
func TestDeployRefusesWiring(t *testing.T) {
	_, sub, m, w := submitTiny(t, SubmitOptions{})
	other := NewFramework(Options{})
	fw := NewFramework(Options{})
	for name, cfg := range map[string]coordinator.Config{
		"platform": {Platform: other.Platform()},
		"tracer":   {Tracer: obs.NewTracer()},
		"metrics":  {Metrics: obs.NewMetrics()},
		"series":   {Series: obs.NewTimeSeries(time.Second)},
	} {
		if _, err := fw.Deploy(m, w, sub.Plan, cfg); err == nil || !strings.Contains(err.Error(), "framework's") {
			t.Errorf("%s: got %v, want the framework-owns-wiring error", name, err)
		}
		if _, err := fw.Submit(m, w, SubmitOptions{Deploy: cfg}); err == nil {
			t.Errorf("%s: Submit accepted it", name)
		}
	}
	if fns := fw.Platform().Functions(); len(fns) != 0 {
		t.Errorf("refused deployments left functions: %v", fns)
	}
}

// A Store in the config replaces the framework's S3 store: every
// activation of a partitioned job stages through it, none through S3.
func TestDeployStoreOverride(t *testing.T) {
	_, sub, m, w := submitTiny(t, SubmitOptions{MaxLayersPerPartition: 4})
	if sub.Partitions() < 2 {
		t.Fatalf("need a partitioned plan, got %d partition(s)", sub.Partitions())
	}
	fw := NewFramework(Options{})
	svc, err := fw.Deploy(m, w, sub.Plan, coordinator.Config{Store: redis.New(fw.Meter())})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	in := randomInput(m, 4)
	rep, err := svc.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(w, in)
	if !tensor.AllClose(want, rep.Output, 1e-5) {
		t.Fatal("redis-staged prediction differs from the direct forward pass")
	}
	if puts, gets := fw.Store().Stats(); puts != 0 || gets != 0 {
		t.Errorf("S3 saw %d puts and %d gets; the job should stage through redis only", puts, gets)
	}
	if fw.Meter().Breakdown()["redis:instance"] <= 0 {
		t.Error("the redis instance was never billed")
	}
}

// A Deploy-made Service has no batch co-plan: Serve uses MaxBatch as
// given and refuses a negative one, which asks for a co-plan's size.
func TestDeployServeBatchAsGiven(t *testing.T) {
	_, sub, m, w := submitTiny(t, SubmitOptions{Deploy: coordinator.Config{SkipCompute: true}})
	mx := obs.NewMetrics()
	fw := NewFramework(Options{Metrics: mx})
	svc, err := fw.Deploy(m, w, sub.Plan, coordinator.Config{SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if svc.BatchPlan != nil {
		t.Fatal("a Deploy-made service carries a batch co-plan")
	}
	ins := []*tensor.Tensor{randomInput(m, 1), randomInput(m, 2), randomInput(m, 3)}
	at := make([]time.Duration, len(ins))
	rep, err := svc.Serve(ins, at, serving.Config{Batch: serving.BatchPolicy{MaxBatch: 3, Window: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if got := mx.Snapshot().Counters["serving_batches_total"]; rep.Completed != 3 || got != 1 {
		t.Errorf("served %d of 3 in %d batches, want one batch of 3", rep.Completed, got)
	}
	if _, err := svc.Serve(ins, at, serving.Config{Batch: serving.BatchPolicy{MaxBatch: -1}}); err == nil {
		t.Error("MaxBatch -1 accepted without a co-plan")
	}
	svc.Close()
	if fns := fw.Platform().Functions(); len(fns) != 0 {
		t.Errorf("Close left functions: %v", fns)
	}
}
