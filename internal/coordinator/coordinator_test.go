package coordinator

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

type env struct {
	meter    *billing.Meter
	platform *lambda.Platform
	store    *s3.Store
}

func newEnv() *env {
	meter := &billing.Meter{}
	return &env{
		meter:    meter,
		platform: lambda.New(meter, perf.Default()),
		store:    s3.New(s3.DefaultConfig(), meter),
	}
}

func (e *env) config() Config {
	return Config{Platform: e.platform, Store: e.store}
}

// deployModel optimizes and deploys a zoo model (reduced resolution keeps
// real forward passes fast) and returns everything tests need.
func deployModel(t *testing.T, name string, size int, maxLambdas int) (*env, *Deployment, *nn.Model, nn.Weights) {
	t.Helper()
	m, err := zoo.Build(name, size)
	if err != nil {
		t.Fatal(err)
	}
	req := optimizer.Request{Model: m, Perf: perf.Default()}
	if maxLambdas > 0 {
		req.MaxLambdas = maxLambdas
	}
	plan, err := optimizer.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	e := newEnv()
	d, err := Deploy(e.config(), m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Teardown)
	return e, d, m, w
}

// forcePartitions builds a plan with at least two partitions for TinyCNN
// by capping layers per partition.
func deployTinySplit(t *testing.T) (*env, *Deployment, *nn.Model, nn.Weights) {
	t.Helper()
	m := zoo.TinyCNN(0)
	req := optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4}
	plan, err := optimizer.Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 2 {
		t.Fatalf("expected a multi-partition plan, got %d", len(plan.Lambdas))
	}
	w := nn.InitWeights(m, 42)
	e := newEnv()
	d, err := Deploy(e.config(), m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Teardown)
	return e, d, m, w
}

func randomInput(m *nn.Model, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	return in
}

func TestDeployCreatesFunctions(t *testing.T) {
	e, d, _, _ := deployTinySplit(t)
	if d.Partitions() < 2 {
		t.Fatalf("partitions = %d", d.Partitions())
	}
	if got := len(e.platform.Functions()); got != d.Partitions() {
		t.Fatalf("platform has %d functions, want %d", got, d.Partitions())
	}
	for _, name := range d.FunctionNames() {
		if !strings.Contains(name, "tinycnn") {
			t.Errorf("function name %q missing model name", name)
		}
	}
}

// The pipeline's prediction must equal the whole-model forward pass —
// bit-for-bit — in both scheduling modes.
func TestPipelineMatchesWholeModel(t *testing.T) {
	_, d, m, w := deployTinySplit(t)
	in := randomInput(m, 7)
	want, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := d.Run(in, RunOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, seq.Output, 0) {
		t.Fatalf("sequential output differs by %v", tensor.MaxAbsDiff(want, seq.Output))
	}
	eager, err := d.Run(in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, eager.Output, 0) {
		t.Fatalf("eager output differs by %v", tensor.MaxAbsDiff(want, eager.Output))
	}
}

func TestEagerFasterButComparableCost(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	in := randomInput(m, 8)
	seq, err := d.Run(in, RunOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// Re-deploying cold state for a fair comparison.
	for _, name := range d.FunctionNames() {
		d.cfg.Platform.ResetWarm(name)
	}
	eager, err := d.Run(in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eager.Completion > seq.Completion {
		t.Fatalf("eager completion %v slower than sequential %v", eager.Completion, seq.Completion)
	}
	if eager.Cost <= 0 || seq.Cost <= 0 {
		t.Fatal("jobs must have positive cost")
	}
}

func TestWarmSecondJobFaster(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	in := randomInput(m, 9)
	first, err := d.Run(in, RunOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Run(in, RunOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Completion >= first.Completion {
		t.Fatalf("warm job %v not faster than cold %v", second.Completion, first.Completion)
	}
	if second.Cost >= first.Cost {
		t.Fatalf("warm job $%.6f not cheaper than cold $%.6f", second.Cost, first.Cost)
	}
	for _, lr := range second.PerLambda {
		if lr.Cold {
			t.Fatal("second job saw a cold start")
		}
	}
}

func TestPerLambdaReports(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	rep, err := d.Run(randomInput(m, 10), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerLambda) != d.Partitions() {
		t.Fatalf("%d lambda reports for %d partitions", len(rep.PerLambda), d.Partitions())
	}
	for i, lr := range rep.PerLambda {
		if !lr.Cold || lr.Compute <= 0 {
			t.Errorf("lambda %d: cold %v, compute %v on a fresh deployment's first job", i, lr.Cold, lr.Compute)
		}
	}
}

// runBatch serves each input as its own job: sequentially on warm
// containers (completion is the sum), or as the paper's parallel
// pipelines, each starting on fresh containers (completion is the
// maximum). The jobs run one at a time either way.
func runBatch(d *Deployment, inputs []*tensor.Tensor, parallel bool) (time.Duration, []*Report, error) {
	var completion time.Duration
	var reps []*Report
	for _, in := range inputs {
		if parallel {
			for _, fn := range d.FunctionNames() {
				d.Platform().ResetWarm(fn)
			}
		}
		rep, err := d.Run(in, RunOptions{})
		if err != nil {
			return 0, nil, err
		}
		reps = append(reps, rep)
		if !parallel {
			completion += rep.Completion
		} else if rep.Completion > completion {
			completion = rep.Completion
		}
	}
	return completion, reps, nil
}

func TestBatchSequentialVsParallel(t *testing.T) {
	_, d, m, w := deployTinySplit(t)
	var inputs []*tensor.Tensor
	for i := 0; i < 4; i++ {
		inputs = append(inputs, randomInput(m, int64(20+i)))
	}
	seq, seqReps, err := runBatch(d, inputs, false)
	if err != nil {
		t.Fatal(err)
	}
	par, parReps, err := runBatch(d, inputs, true)
	if err != nil {
		t.Fatal(err)
	}
	if par >= seq {
		t.Fatalf("parallel batch %v not faster than sequential %v", par, seq)
	}
	// Outputs of both modes must match the direct forward pass.
	for i, in := range inputs {
		want, _ := m.Forward(w, in)
		if !tensor.AllClose(want, seqReps[i].Output, 0) {
			t.Fatalf("sequential batch image %d wrong", i)
		}
		if !tensor.AllClose(want, parReps[i].Output, 0) {
			t.Fatalf("parallel batch image %d wrong", i)
		}
	}
}

// TestRunBatchedStacksImages serves a batched pass, a tensor.Stack of
// images run as one job: one pass through the pipeline, the same output
// as a direct forward pass.
func TestRunBatchedStacksImages(t *testing.T) {
	_, d, m, w := deployTinySplit(t)
	inputs := []*tensor.Tensor{randomInput(m, 30), randomInput(m, 31)}
	stacked, err := tensor.Stack(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(stacked, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output.Shape()[0] != 2 {
		t.Fatalf("batched output shape %v", rep.Output.Shape())
	}
	want, _ := m.Forward(w, stacked)
	if !tensor.AllClose(want, rep.Output, 0) {
		t.Fatal("batched pipeline output differs from direct forward")
	}
}

// TestRunBatchedEmptySlice checks that a batched pass over no images is
// refused: an empty or nil batch does not stack, and a nil input does not
// run.
func TestRunBatchedEmptySlice(t *testing.T) {
	_, d, _, _ := deployTinySplit(t)
	for _, empty := range [][]*tensor.Tensor{nil, {}} {
		if _, err := tensor.Stack(empty); err == nil {
			t.Fatalf("empty batch %#v stacked", empty)
		}
	}
	if _, err := d.Run(nil, RunOptions{}); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestS3OutageSurfaces(t *testing.T) {
	e, d, m, _ := deployTinySplit(t)
	e.store.SetInjector(faults.New(faults.Config{GetFail: 1, PutFail: 1}))
	if _, err := d.Run(randomInput(m, 40), RunOptions{Sequential: true}); err == nil {
		t.Fatal("job succeeded during S3 outage")
	}
	e.store.SetInjector(nil)
	if _, err := d.Run(randomInput(m, 41), RunOptions{Sequential: true}); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestCorruptedDeploymentDetected(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	// Corrupt one partition's weights blob in place.
	d.parts[0].blob[len(d.parts[0].blob)/2] ^= 0xFF
	d.parts[0].weights = nil
	d.cfg.Platform.ResetWarm(d.parts[0].fnName)
	_, err := d.Run(randomInput(m, 50), RunOptions{Sequential: true})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestDeployValidation(t *testing.T) {
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 1)
	plan, _ := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default()})
	e := newEnv()
	if _, err := Deploy(Config{Store: e.store}, m, w, plan); err == nil {
		t.Fatal("missing platform accepted")
	}
	if _, err := Deploy(e.config(), m, w, nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	bad := nn.Weights{}
	if _, err := Deploy(e.config(), m, bad, plan); err == nil {
		t.Fatal("missing weights accepted")
	}
}

func TestJobCleanupRemovesIntermediates(t *testing.T) {
	e, d, m, _ := deployTinySplit(t)
	if _, err := d.Run(randomInput(m, 60), RunOptions{Sequential: true}); err != nil {
		t.Fatal(err)
	}
	if n := e.store.TotalBytes(); n != 0 {
		t.Fatalf("%d bytes left in S3 after job cleanup", n)
	}
}

func TestSingleLambdaDeployment(t *testing.T) {
	_, d, m, w := deployModel(t, "tinycnn", 0, 0)
	if d.Partitions() != 1 {
		t.Fatalf("tinycnn deployed on %d lambdas", d.Partitions())
	}
	in := randomInput(m, 70)
	rep, err := d.Run(in, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(w, in)
	if !tensor.AllClose(want, rep.Output, 0) {
		t.Fatal("single-lambda output wrong")
	}
}
