package optimizer

import (
	"testing"
	"time"

	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

func TestCoPlanBatchSizeOneMatchesPlan(t *testing.T) {
	o, err := New(Request{Model: zoo.TinyCNN(0), Perf: perf.Default(), MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := o.CoPlanBatch(plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Options) != 1 {
		t.Fatalf("maxBatch 1 produced %d options", len(bp.Options))
	}
	one := bp.Option(1)
	if one == nil {
		t.Fatal("no batch-1 option")
	}
	// Batch 1 re-evaluates the same per-block expressions the plan was
	// priced with, so the pair must agree bit for bit.
	if one.EstTime != plan.EstTime {
		t.Fatalf("batch-1 time %v != plan time %v", one.EstTime, plan.EstTime)
	}
	if one.EstCost != plan.EstCost {
		t.Fatalf("batch-1 cost %v != plan cost %v", one.EstCost, plan.EstCost)
	}
	if one.CostPerRequest != one.EstCost {
		t.Fatalf("batch-1 cost/request %v != cost %v", one.CostPerRequest, one.EstCost)
	}
	if bp.Chosen != 1 {
		t.Fatalf("chosen %d, want 1", bp.Chosen)
	}
}

func TestCoPlanBatchAmortizesCost(t *testing.T) {
	o, err := New(Request{Model: zoo.TinyCNN(0), Perf: perf.Default(), MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	bp, err := o.CoPlanBatch(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Options) == 0 {
		t.Fatal("no feasible options")
	}
	one := bp.Option(1)
	if one == nil {
		t.Fatal("batch 1 must always be feasible for a feasible plan")
	}
	prevBatch := 0
	for _, opt := range bp.Options {
		if opt.Batch <= prevBatch {
			t.Fatalf("options not in ascending batch order: %d after %d", opt.Batch, prevBatch)
		}
		prevBatch = opt.Batch
		if opt.Batch > 1 {
			// Shared init and weight-load amortize: larger batches take
			// longer per invocation but cost less per request.
			if opt.EstTime <= one.EstTime {
				t.Fatalf("batch %d time %v not above batch-1 time %v", opt.Batch, opt.EstTime, one.EstTime)
			}
			if opt.CostPerRequest >= one.CostPerRequest {
				t.Fatalf("batch %d cost/request %v not below batch-1 %v", opt.Batch, opt.CostPerRequest, one.CostPerRequest)
			}
		}
	}
	// With no SLO every option complies, so the chosen size is the
	// global per-request cost minimum.
	chosen := bp.Option(bp.Chosen)
	if chosen == nil {
		t.Fatalf("chosen size %d has no option", bp.Chosen)
	}
	for _, opt := range bp.Options {
		if opt.CostPerRequest < chosen.CostPerRequest {
			t.Fatalf("batch %d at %v beats chosen %d at %v",
				opt.Batch, opt.CostPerRequest, bp.Chosen, chosen.CostPerRequest)
		}
	}
	if bp.Chosen <= 1 {
		t.Fatalf("amortization should favor batching, chose %d", bp.Chosen)
	}
}

func TestCoPlanBatchRespectsSLO(t *testing.T) {
	o, err := New(Request{Model: zoo.TinyCNN(0), Perf: perf.Default(), MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := o.CoPlanBatch(plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	one := wide.Option(1)

	// Re-plan with an SLO that only batch 1 can meet: the co-plan must
	// back off to the unbatched invocation even though it is the most
	// expensive per request.
	tight, err := New(Request{
		Model: zoo.TinyCNN(0), Perf: perf.Default(), MaxLayersPerPartition: 4,
		SLO: one.EstTime + time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tplan, err := tight.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	tbp, err := tight.CoPlanBatch(tplan, 8)
	if err != nil {
		t.Fatal(err)
	}
	chosen := tbp.Option(tbp.Chosen)
	if chosen == nil || !chosen.MeetsSLO {
		t.Fatalf("chosen batch %d does not meet the SLO", tbp.Chosen)
	}
	for _, opt := range tbp.Options {
		if opt.MeetsSLO && opt.CostPerRequest < chosen.CostPerRequest {
			t.Fatalf("SLO-meeting batch %d at %v beats chosen %d", opt.Batch, opt.CostPerRequest, tbp.Chosen)
		}
	}
}

func TestCoPlanBatchFallsBackWhenNothingFits(t *testing.T) {
	o, err := New(Request{Model: zoo.TinyCNN(0), Perf: perf.Default(), MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	// Doctor the plan onto blocks far below the working-set floor: no
	// batch size fits, and the co-plan degrades to the safe size 1.
	broken := *plan
	broken.Lambdas = append([]LambdaPlan(nil), plan.Lambdas...)
	for i := range broken.Lambdas {
		broken.Lambdas[i].MemoryMB = 128
	}
	bp, err := o.CoPlanBatch(&broken, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Options) != 0 {
		t.Fatalf("infeasible blocks still produced %d options", len(bp.Options))
	}
	if bp.Chosen != 1 {
		t.Fatalf("fallback chose %d, want 1", bp.Chosen)
	}

	if _, err := o.CoPlanBatch(nil, 4); err == nil {
		t.Fatal("nil plan accepted")
	}
	// Non-positive maxBatch clamps to 1 instead of erroring.
	bp, err = o.CoPlanBatch(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Chosen != 1 || len(bp.Options) != 1 {
		t.Fatalf("clamped co-plan = %+v", bp)
	}
}

func TestBatchPlanClamp(t *testing.T) {
	bp := &BatchPlan{Options: []BatchOption{{Batch: 1}, {Batch: 2}, {Batch: 4}}}
	for _, c := range []struct{ ask, want int }{
		{8, 4}, {4, 4}, {3, 2}, {2, 2}, {1, 1}, {0, 1}, {-5, 1},
	} {
		if got := bp.Clamp(c.ask); got != c.want {
			t.Fatalf("Clamp(%d) = %d, want %d", c.ask, got, c.want)
		}
	}
	empty := &BatchPlan{}
	if got := empty.Clamp(16); got != 1 {
		t.Fatalf("empty Clamp = %d, want 1", got)
	}
}
