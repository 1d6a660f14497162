package optimizer

import (
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
)

func newOpt(t *testing.T, model string) *Optimizer {
	t.Helper()
	o, err := New(request(model))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFeasibleMemoriesSortedAndValid(t *testing.T) {
	o := newOpt(t, "mobilenet")
	S := len(o.Segments())
	ms := o.FeasibleMemories(0, S)
	if len(ms) == 0 {
		t.Fatal("no feasible memories for whole mobilenet")
	}
	for i, m := range ms {
		if !pricing.Quota2020().ValidMemory(m) {
			t.Fatalf("memory %d invalid", m)
		}
		if i > 0 && ms[i] <= ms[i-1] {
			t.Fatal("memories not increasing")
		}
	}
	// The paper's x-axis: MobileNet's floor is 256 MB.
	if ms[0] != 256 {
		t.Fatalf("mobilenet min feasible block %d, want 256", ms[0])
	}
	if o.FeasibleMemories(-1, 2) != nil || o.FeasibleMemories(2, 1) != nil {
		t.Fatal("invalid spans returned memories")
	}
}

func TestMinFeasibleBlock(t *testing.T) {
	o := newOpt(t, "mobilenet")
	S := len(o.Segments())
	if ms := o.FeasibleMemories(0, S); len(ms) == 0 || ms[0] != 256 {
		t.Fatalf("min feasible = %v", ms)
	}
	// A span has a smallest feasible block exactly where it is feasible.
	for a := 0; a < S; a++ {
		for b := a + 1; b <= S; b++ {
			if ms := o.FeasibleMemories(a, b); o.SpanFeasible(a, b) != (len(ms) > 0) {
				t.Fatalf("span [%d, %d): SpanFeasible = %v, FeasibleMemories = %v", a, b, o.SpanFeasible(a, b), ms)
			}
		}
	}
}

func TestSpanEstimateConsistency(t *testing.T) {
	o := newOpt(t, "mobilenet")
	S := len(o.Segments())
	t1024, c1024, err := o.SpanEstimate(0, S, 1024)
	if err != nil {
		t.Fatal(err)
	}
	t512, c512, err := o.SpanEstimate(0, S, 512)
	if err != nil {
		t.Fatal(err)
	}
	if t512 <= t1024 {
		t.Fatal("512 MB not slower than 1024 MB")
	}
	if c512 <= 0 || c1024 <= 0 {
		t.Fatal("non-positive costs")
	}
	if _, _, err := o.SpanEstimate(0, S, 100); err == nil {
		t.Fatal("invalid block accepted")
	}
	if _, _, err := o.SpanEstimate(0, S, 128); err == nil {
		t.Fatal("infeasibly small block accepted")
	}
}

func TestSpanFeasibleBounds(t *testing.T) {
	o := newOpt(t, "resnet50")
	S := len(o.Segments())
	// A range that is not a span is infeasible to every span accessor,
	// none of which may index the table with it (SpanEstimate did).
	for _, c := range []struct {
		name string
		a, b int
	}{
		{"negative start", -1, 1}, {"end past the model", 0, S + 1}, {"empty", 3, 3},
		{"reversed", 5, 2}, {"start at the end", S, S + 1}, {"both out of range", -3, S + 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			if o.SpanFeasible(c.a, c.b) {
				t.Error("SpanFeasible reports it feasible")
			}
			if ms := o.FeasibleMemories(c.a, c.b); ms != nil {
				t.Errorf("FeasibleMemories = %v, want nil", ms)
			}
			if d, cost, err := o.SpanEstimate(c.a, c.b, 1024); err == nil {
				t.Errorf("SpanEstimate = (%v, %v), want an error", d, cost)
			}
		})
	}
	// The whole ResNet50 cannot be one partition (Table 1).
	if o.SpanFeasible(0, S) {
		t.Fatal("whole resnet50 reported deployable on one lambda")
	}
}

func TestWeightScaleMakesVGGFeasible(t *testing.T) {
	req := request("vgg16")
	if _, err := Optimize(req); err == nil {
		t.Fatal("float vgg16 should be infeasible")
	}
	req.WeightScale = 0.145 // 4-bit
	plan, err := Optimize(req)
	if err != nil {
		t.Fatalf("scaled vgg16 infeasible: %v", err)
	}
	if len(plan.Lambdas) < 1 {
		t.Fatal("empty plan")
	}
}

func TestQuota2021Plan(t *testing.T) {
	req := request("resnet50")
	q := pricing.Quota2021()
	req.Quota = &q
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range plan.Memories() {
		if !q.ValidMemory(mem) {
			t.Fatalf("memory %d invalid under 2021 quota", mem)
		}
	}
	// Cost-optimal plan under a strictly larger decision space cannot be
	// worse than under 2020 (same 64 MB search grid plus the max block).
	base, err := Optimize(request("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstCost > base.EstCost*1.001 {
		t.Fatalf("2021 plan costlier: %.6f vs %.6f", plan.EstCost, base.EstCost)
	}
}

func TestSearchStrideRespected(t *testing.T) {
	req := request("mobilenet")
	q := pricing.Quota2021()
	req.Quota = &q
	req.SearchStrideMB = 512
	o, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range plan.Memories() {
		if (mem-128)%512 != 0 && mem != 10240 {
			t.Fatalf("memory %d off the 512 MB search grid", mem)
		}
	}
}

func TestPlanForConfigMatchesSpanEstimates(t *testing.T) {
	o := newOpt(t, "mobilenet")
	S := len(o.Segments())
	plan, err := o.PlanForConfig([]int{0, S}, []int{1024})
	if err != nil {
		t.Fatal(err)
	}
	wantT, wantC, _ := o.SpanEstimate(0, S, 1024)
	if plan.EstTime != wantT {
		t.Fatalf("plan time %v vs span %v", plan.EstTime, wantT)
	}
	// Plan adds only the (tiny) storage term for the first partition (0).
	if diff := plan.EstCost - wantC; diff < 0 || diff > 1e-9 {
		t.Fatalf("plan cost %v vs span %v", plan.EstCost, wantC)
	}
}

func TestProfileSpanAndModelAccessors(t *testing.T) {
	o := newOpt(t, "tinycnn")
	S := len(o.Segments())
	prof := o.profiler.Profile(0, S)
	if prof.FLOPs != o.Model().TotalFLOPs() {
		t.Fatal("whole-span profile flops mismatch")
	}
	if top := o.blocks[len(o.blocks)-1]; top != 3008 {
		t.Fatalf("max block %d", top)
	}
}

func TestTightSLOBuysTimeMonotonically(t *testing.T) {
	// Over a ladder of SLOs, plan time must be non-increasing and cost
	// non-decreasing (the optimizer's core trade-off).
	base, err := Optimize(request("inceptionv3"))
	if err != nil {
		t.Fatal(err)
	}
	prevTime := base.EstTime
	prevCost := base.EstCost
	for _, f := range []float64{0.97, 0.94, 0.91, 0.88} {
		req := request("inceptionv3")
		req.SLO = time.Duration(float64(base.EstTime) * f)
		p, err := Optimize(req)
		if err != nil {
			t.Fatal(err)
		}
		if !p.MeetsSLO {
			break // beyond the feasible frontier
		}
		if p.EstTime > prevTime+time.Millisecond {
			t.Fatalf("factor %.2f: time went up (%v → %v)", f, prevTime, p.EstTime)
		}
		if p.EstCost < prevCost-1e-12 {
			t.Fatalf("factor %.2f: cost went down (%.6f → %.6f)", f, prevCost, p.EstCost)
		}
		prevTime, prevCost = p.EstTime, p.EstCost
	}
}
