package core

import (
	"testing"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/serving"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

func TestSubmitCoPlansBatch(t *testing.T) {
	_, svc, _, _ := submitTiny(t, SubmitOptions{Deploy: coordinator.Config{SkipCompute: true}})
	if svc.BatchPlan == nil {
		t.Fatal("submission produced no batch co-plan")
	}
	if len(svc.BatchPlan.Options) == 0 {
		t.Fatal("batch co-plan has no options")
	}
	if svc.BatchPlan.Chosen < 1 {
		t.Fatalf("co-plan chose %d", svc.BatchPlan.Chosen)
	}
	one := svc.BatchPlan.Option(1)
	if one == nil {
		t.Fatal("co-plan lacks the batch-1 option")
	}
	if one.EstTime != svc.Plan.EstTime || one.EstCost != svc.Plan.EstCost {
		t.Fatalf("batch-1 option (%v, %v) diverges from plan (%v, %v)",
			one.EstTime, one.EstCost, svc.Plan.EstTime, svc.Plan.EstCost)
	}
}

func TestServiceServeDefaultsAndClamps(t *testing.T) {
	fw := NewFramework(Options{Trace: obs.NewTracer()})
	m := zoo.TinyCNN(0)
	svc, err := fw.Submit(m, nn.InitWeights(m, 3), SubmitOptions{Deploy: coordinator.Config{SkipCompute: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	fw.Platform().SetAccountConcurrency(4 * svc.Partitions())
	n := 6
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = randomInput(m, int64(i+1))
	}
	arrivals := workload.PoissonArrivals(n, 2, 7)
	rep, err := svc.Serve(ins, arrivals, serving.Config{
		Pipeline: serving.PipelinePolicy{Depth: 3},
		Batch:    serving.BatchPolicy{MaxBatch: 4, Window: 2 * time.Second, JitterSeed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "pipelined+batched" {
		t.Fatalf("serve policies not applied: mode %q", rep.Mode)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	if got, want := obs.SumCostsAll(rep.Traces()), fw.Meter().Total(); got != want {
		t.Fatalf("trace costs %v != meter %v", got, want)
	}
}

func TestServiceServeAutoBatch(t *testing.T) {
	fw, svc, m, _ := submitTiny(t, SubmitOptions{Deploy: coordinator.Config{SkipCompute: true}})
	fw.Platform().SetAccountConcurrency(4 * svc.Partitions())
	n := 4
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = randomInput(m, int64(i+1))
	}
	// MaxBatch -1 asks for the co-plan's recommended size; with no SLO
	// the co-plan favors batching, so simultaneous arrivals coalesce.
	rep, err := svc.Serve(ins, make([]time.Duration, n), serving.Config{
		Batch: serving.BatchPolicy{MaxBatch: -1, Window: time.Second, JitterSeed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	if svc.BatchPlan.Chosen > 1 && rep.Mode != "batched" {
		t.Fatalf("auto batch did not batch: mode %q (chosen %d)", rep.Mode, svc.BatchPlan.Chosen)
	}
}
