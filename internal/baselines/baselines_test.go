package baselines

import (
	"math/rand"
	"testing"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/cloud/stepfn"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

func newOptimizer(t *testing.T, model string, maxLayers int) *optimizer.Optimizer {
	t.Helper()
	m, err := zoo.Build(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: maxLayers})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRandomPlanFeasibleAndUniformMemory(t *testing.T) {
	o := newOptimizer(t, "resnet50", 0)
	rng := rand.New(rand.NewSource(1))
	plan, err := RandomPlan(o, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 1 {
		t.Fatal("empty plan")
	}
	mem := plan.Lambdas[0].MemoryMB
	for _, l := range plan.Lambdas {
		if l.MemoryMB != mem {
			t.Fatalf("Baseline 1 memories not uniform: %v", plan.Memories())
		}
	}
	// Different seeds should (eventually) give different plans.
	rng2 := rand.New(rand.NewSource(99))
	plan2, err := RandomPlan(o, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.EstCost == plan2.EstCost && len(plan.Lambdas) == len(plan2.Lambdas) && plan2.Lambdas[0].MemoryMB == mem {
		t.Log("two seeds produced identical plans (possible but unlikely)")
	}
}

func TestGreedyPlanUsesMaxMemoryAndFewPartitions(t *testing.T) {
	o := newOptimizer(t, "resnet50", 0)
	plan, err := GreedyLastLayerPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range plan.Lambdas {
		if l.MemoryMB != pricing.LambdaMaxMemoryMB {
			t.Fatalf("Baseline 2 memory %d, want max %d", l.MemoryMB, pricing.LambdaMaxMemoryMB)
		}
	}
	// Greedy packing should produce close to the minimum partition count.
	opt, err := OptimalPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) > len(opt.Lambdas)+2 {
		t.Fatalf("greedy used %d partitions vs optimal %d", len(plan.Lambdas), len(opt.Lambdas))
	}
}

// The paper's Fig 10 ordering: cost(B3) ≤ cost(AMPS-Inf) ≤ cost(B1) and
// cost(B3) ≤ cost(B2); B2 (max memory everywhere) is the costliest.
func TestCostOrderingAcrossBaselines(t *testing.T) {
	for _, model := range []string{"resnet50", "inceptionv3", "xception"} {
		o := newOptimizer(t, model, 0)
		b3, err := OptimalPlan(o)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := GreedyLastLayerPlan(o)
		if err != nil {
			t.Fatal(err)
		}
		b1, err := RandomPlan(o, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if b3.EstCost > b1.EstCost+1e-12 {
			t.Errorf("%s: optimal $%.6f costlier than random $%.6f", model, b3.EstCost, b1.EstCost)
		}
		if b3.EstCost > b2.EstCost+1e-12 {
			t.Errorf("%s: optimal $%.6f costlier than greedy-max $%.6f", model, b3.EstCost, b2.EstCost)
		}
		if b2.EstCost < b3.EstCost*1.2 {
			t.Errorf("%s: max-memory baseline suspiciously cheap ($%.6f vs optimal $%.6f)", model, b2.EstCost, b3.EstCost)
		}
	}
}

type env struct {
	meter    *billing.Meter
	platform *lambda.Platform
	store    *s3.Store
}

func newEnv() *env {
	meter := &billing.Meter{}
	return &env{meter: meter, platform: lambda.New(meter, perf.Default()), store: s3.New(s3.DefaultConfig(), meter)}
}

func randomInput(m *nn.Model, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	return in
}

// Serfer with the same configuration must be slower and costlier than the
// AMPS-Inf pipeline (Fig 11): the difference is the step-transition
// overhead.
func TestSerferSlowerThanDirectPipeline(t *testing.T) {
	o := newOptimizer(t, "tinycnn", 4)
	plan, err := OptimalPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 2 {
		t.Fatalf("need a multi-partition plan, got %d", len(plan.Lambdas))
	}
	m := o.Model()
	w := nn.InitWeights(m, 5)

	e := newEnv()
	dep, err := coordinator.Deploy(coordinator.Config{Platform: e.platform, Store: e.store}, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Teardown()

	in := randomInput(m, 11)
	direct, err := dep.RunSequential(in)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range dep.FunctionNames() {
		e.platform.ResetWarm(name)
	}
	eng := stepfn.NewEngine(e.platform, e.meter)
	serfer, err := RunSerfer(eng, dep, e.store, in)
	if err != nil {
		t.Fatal(err)
	}
	if serfer.Completion <= direct.Completion {
		t.Fatalf("serfer %v not slower than direct %v", serfer.Completion, direct.Completion)
	}
	if serfer.Cost <= direct.Cost {
		t.Fatalf("serfer $%.6f not costlier than direct $%.6f", serfer.Cost, direct.Cost)
	}
	if serfer.Transitions != dep.Partitions()+1 {
		t.Fatalf("transitions %d for %d partitions", serfer.Transitions, dep.Partitions())
	}
	// The prediction must still be correct.
	want, _ := m.Forward(w, in)
	if !tensor.AllClose(want, serfer.Output, 0) {
		t.Fatal("serfer output wrong")
	}
}

func TestBATCHServesBuffered(t *testing.T) {
	o := newOptimizer(t, "tinycnn", 0)
	m := o.Model()
	w := nn.InitWeights(m, 6)
	e := newEnv()
	sys, err := NewBATCH(coordinator.Config{Platform: e.platform, Store: e.store}, o, w, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	images := []*tensor.Tensor{
		randomInput(m, 1), randomInput(m, 2), randomInput(m, 3), randomInput(m, 4), randomInput(m, 5),
	}
	rep, err := sys.Serve(images)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 3 { // 2 + 2 + 1
		t.Fatalf("batches = %d, want 3", rep.Batches)
	}
	if len(rep.Outputs) != len(images) {
		t.Fatalf("%d outputs for %d images", len(rep.Outputs), len(images))
	}
	for i, img := range images {
		want, _ := m.Forward(w, img)
		if !tensor.AllClose(want, rep.Outputs[i], 1e-5) {
			t.Fatalf("BATCH output %d wrong by %v", i, tensor.MaxAbsDiff(want, rep.Outputs[i]))
		}
	}
}

func TestBATCHRejectsOversizedModel(t *testing.T) {
	o := newOptimizer(t, "resnet50", 0)
	e := newEnv()
	m := o.Model()
	_, err := NewBATCH(coordinator.Config{Platform: e.platform, Store: e.store}, o, nn.InitWeights(m, 1), 3008, 10)
	if err == nil {
		t.Fatal("BATCH accepted a model that cannot fit one lambda")
	}
}

func TestPlanForConfigValidation(t *testing.T) {
	o := newOptimizer(t, "tinycnn", 0)
	S := len(o.Segments())
	if _, err := o.PlanForConfig([]int{0, S}, []int{999}); err == nil {
		t.Fatal("invalid block accepted")
	}
	if _, err := o.PlanForConfig([]int{0}, nil); err == nil {
		t.Fatal("degenerate bounds accepted")
	}
	if _, err := o.PlanForConfig([]int{0, S}, []int{128}); err == nil {
		t.Fatal("infeasibly small block accepted")
	}
}
