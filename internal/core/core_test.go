package core

import (
	"math/rand"
	"testing"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

func randomInput(m *nn.Model, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	return in
}

func submitTiny(t *testing.T, opts SubmitOptions) (*Framework, *Service, *nn.Model, nn.Weights) {
	t.Helper()
	fw := NewFramework(Options{})
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 3)
	svc, err := fw.Submit(m, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return fw, svc, m, w
}

func TestSubmitAndInfer(t *testing.T) {
	_, svc, m, w := submitTiny(t, SubmitOptions{})
	in := randomInput(m, 1)
	rep, err := svc.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Forward(w, in)
	if !tensor.AllClose(want, rep.Output, 0) {
		t.Fatal("service prediction differs from direct forward pass")
	}
	if rep.Completion <= 0 || rep.Cost <= 0 {
		t.Fatalf("degenerate report: %v / %v", rep.Completion, rep.Cost)
	}
	if svc.PlanningTime <= 0 {
		t.Fatal("planning time not recorded")
	}
}

// The planner prices a partition's S3 transfers on the model of the
// store the framework stages through: every span's estimate is its
// compute time plus the store's TransferTime of its input and output.
func TestPlannerTransferMatchesStore(t *testing.T) {
	fw := NewFramework(Options{})
	o, err := optimizer.New(optimizer.Request{Model: zoo.MobileNet(0), Perf: fw.platform.Perf()})
	if err != nil {
		t.Fatal(err)
	}
	sp := perf.NewSpanProfiler(o.Model(), o.Segments())
	checked := 0
	for a := range o.Segments() {
		for b := a + 1; b <= len(o.Segments()); b++ {
			ms := o.FeasibleMemories(a, b)
			if len(ms) == 0 {
				continue
			}
			mem := ms[0]
			got, _, err := o.SpanEstimate(a, b, mem)
			if err != nil {
				t.Fatal(err)
			}
			prof := sp.Profile(a, b)
			want := fw.platform.Perf().EndToEndTime(mem, prof.FLOPs, prof.WeightsBytes) +
				fw.store.TransferTime(prof.InBytes) + fw.store.TransferTime(prof.OutBytes)
			if got != want {
				t.Fatalf("span [%d, %d) at %d MB: planner estimates %v, store model gives %v", a, b, mem, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no feasible span checked")
	}
}

func TestSubmitRejectsNilAndInvalid(t *testing.T) {
	fw := NewFramework(Options{})
	if _, err := fw.Submit(nil, nil, SubmitOptions{}); err == nil {
		t.Fatal("nil model accepted")
	}
	m := zoo.TinyCNN(0)
	if _, err := fw.Submit(m, nn.Weights{}, SubmitOptions{}); err == nil {
		t.Fatal("empty weights accepted")
	}
}

func TestServiceRespectsSLO(t *testing.T) {
	// First learn the cost-optimal time, then demand a modestly faster
	// deployment and verify the plan honors it.
	_, base, _, _ := submitTiny(t, SubmitOptions{Deploy: coordinator.Config{NamePrefix: "base"}})
	slo := time.Duration(float64(base.Plan.EstTime) * 0.95)
	fw := NewFramework(Options{})
	m := zoo.TinyCNN(0)
	svc, err := fw.Submit(m, nn.InitWeights(m, 3), SubmitOptions{SLO: slo})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if !svc.Plan.MeetsSLO {
		t.Fatalf("SLO %v not met (plan %v)", slo, svc.Plan.EstTime)
	}
	if svc.Plan.EstTime > slo {
		t.Fatalf("plan time %v over SLO %v", svc.Plan.EstTime, slo)
	}
}

func TestBreakdown(t *testing.T) {
	_, svc, m, _ := submitTiny(t, SubmitOptions{MaxLayersPerPartition: 4})
	rep, err := svc.Infer(randomInput(m, 5))
	if err != nil {
		t.Fatal(err)
	}
	load, predict := Breakdown(rep)
	if load <= 0 || predict <= 0 {
		t.Fatalf("breakdown %v / %v", load, predict)
	}
	// Load + predict must be bounded by the summed active time.
	var active time.Duration
	for _, lr := range rep.PerLambda {
		active += lr.Init + lr.Load + lr.Read + lr.Compute + lr.Write
	}
	if load+predict > active {
		t.Fatalf("breakdown %v exceeds active %v", load+predict, active)
	}
}

func TestColdStartResetsContainers(t *testing.T) {
	_, svc, m, _ := submitTiny(t, SubmitOptions{})
	in := randomInput(m, 6)
	first, _ := svc.Infer(in)
	warm, _ := svc.Infer(in)
	if warm.Completion >= first.Completion {
		t.Fatal("warm inference not faster")
	}
	svc.ColdStart()
	cold, _ := svc.Infer(in)
	if cold.Completion <= warm.Completion {
		t.Fatal("ColdStart did not reset containers")
	}
}

// TestBatchAPIs serves a batch the paper's three ways: per-image jobs on
// warm containers (completion is the sum), per-image jobs each on fresh
// containers (parallel pipelines: completion is the slowest), and one
// batched pass over the stacked images; and one image on the sequential
// schedule through the deployment.
func TestBatchAPIs(t *testing.T) {
	_, svc, m, _ := submitTiny(t, SubmitOptions{})
	inputs := []*tensor.Tensor{randomInput(m, 7), randomInput(m, 8)}
	var seq, par time.Duration
	for _, parallel := range []bool{false, true} {
		for _, in := range inputs {
			if parallel {
				svc.ColdStart()
			}
			rep, err := svc.Infer(in)
			if err != nil {
				t.Fatal(err)
			}
			if parallel {
				par = max(par, rep.Completion)
			} else {
				seq += rep.Completion
			}
		}
	}
	if par >= seq {
		t.Fatal("parallel batch not faster than sequential")
	}
	stacked, err := tensor.Stack(inputs)
	if err != nil {
		t.Fatal(err)
	}
	one, err := svc.Infer(stacked)
	if err != nil {
		t.Fatal(err)
	}
	if one.Output.Shape()[0] != 2 {
		t.Fatalf("batched output shape %v", one.Output.Shape())
	}
	rep, err := svc.Deployment().Run(inputs[0], coordinator.RunOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "sequential" {
		t.Fatalf("mode %q, want sequential", rep.Mode)
	}
}

func TestMeterAccumulatesAcrossJobs(t *testing.T) {
	fw, svc, m, _ := submitTiny(t, SubmitOptions{})
	before := fw.Meter().Total()
	if _, err := svc.Infer(randomInput(m, 9)); err != nil {
		t.Fatal(err)
	}
	if fw.Meter().Total() <= before {
		t.Fatal("meter did not accumulate")
	}
}
