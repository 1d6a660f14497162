package coordinator

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
)

// deployTinyTraced deploys the multi-partition TinyCNN pipeline with a
// tracer installed as the meter's observer, optionally with a seeded
// fault injector and a resilient retry policy.
func deployTinyTraced(t *testing.T, rate float64, seed int64) (*env, *Deployment, *nn.Model, *obs.Tracer) {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	e := newEnv()
	tr := obs.NewTracer()
	e.meter.SetObserver(tr.RecordCost)
	cfg := e.config()
	cfg.Tracer = tr
	if rate > 0 {
		inj := faults.New(faults.Uniform(rate, seed))
		e.platform.SetInjector(inj)
		e.store.SetInjector(inj)
		cfg.Retry = resilientPolicy(seed)
	}
	d, err := Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Teardown)
	return e, d, m, tr
}

// checkTraceInvariants asserts the tentpole's core properties on one
// report: a well-formed span tree whose duration matches the report's
// completion time and whose per-span costs sum exactly (first job) or
// to within float tolerance (warm meter) to Report.Cost.
func checkTraceInvariants(t *testing.T, rep *Report, firstJob bool) {
	t.Helper()
	if rep.Trace == nil {
		t.Fatal("traced run produced nil Report.Trace")
	}
	if err := obs.ValidateTree(rep.Trace); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	if rep.Trace.Duration != rep.Completion {
		t.Fatalf("root span duration %v != completion %v", rep.Trace.Duration, rep.Completion)
	}
	sum := obs.SumCostsAll([]*obs.Span{rep.Trace})
	if firstJob {
		if sum != rep.Cost {
			t.Fatalf("sum of span costs %.18f != Report.Cost %.18f", sum, rep.Cost)
		}
		return
	}
	if diff := sum - rep.Cost; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sum of span costs %.18f differs from Report.Cost %.18f by %g", sum, rep.Cost, diff)
	}
}

// Property: for both execution modes, with and without injected faults,
// the sum of span costs reproduces Report.Cost and span timing is
// internally consistent.
func TestTraceCostAndTimingProperty(t *testing.T) {
	cases := []struct {
		name string
		rate float64
		seed int64
	}{
		{"clean", 0, 0},
		{"faulty", 0.25, 777},
	}
	for _, tc := range cases {
		for _, eager := range []bool{false, true} {
			mode := "sequential"
			if eager {
				mode = "eager"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				_, d, m, tr := deployTinyTraced(t, tc.rate, tc.seed)
				faultsSeen := 0
				for j := 0; j < 4; j++ {
					in := randomInput(m, int64(100*j)+tc.seed)
					var rep *Report
					var err error
					if eager {
						rep, err = d.Run(in, RunOptions{})
					} else {
						rep, err = d.Run(in, RunOptions{Sequential: true})
					}
					if err != nil {
						t.Fatalf("job %d: %v", j, err)
					}
					checkTraceInvariants(t, rep, j == 0)
					faultsSeen += rep.FaultsInjected
				}
				if tc.rate > 0 && faultsSeen == 0 {
					t.Fatal("fault injector installed but no faults hit; property not exercised")
				}
				if got := len(tr.Jobs()); got != 4 {
					t.Fatalf("tracer collected %d jobs, want 4", got)
				}
			})
		}
	}
}

// The span tree must cover every partition invocation and every
// execution phase of each success attempt.
func TestTraceCoversAllPhases(t *testing.T) {
	_, d, m, _ := deployTinyTraced(t, 0, 0)
	rep, err := d.Run(randomInput(m, 7), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	invokes := 0
	phases := map[string]int{}
	rep.Trace.Walk(func(s *obs.Span) {
		switch s.Kind {
		case obs.KindInvoke:
			invokes++
		case obs.KindPhase:
			phases[s.Name]++
		}
	})
	if invokes != len(rep.PerLambda) {
		t.Fatalf("trace has %d invoke spans, report has %d lambdas", invokes, len(rep.PerLambda))
	}
	for _, name := range []string{"coldstart", "deps-init", "load-weights", "s3-read", "compute"} {
		if phases[name] != len(rep.PerLambda) {
			t.Fatalf("phase %q appears %d times, want one per lambda (%d); phases: %v",
				name, phases[name], len(rep.PerLambda), phases)
		}
	}
	// Every partition but the last stages its activation through S3.
	if phases["s3-write"] < len(rep.PerLambda)-1 {
		t.Fatalf("phase s3-write appears %d times, want at least %d; phases: %v",
			phases["s3-write"], len(rep.PerLambda)-1, phases)
	}
}

// Retries must appear in the trace as failed attempt spans (with fault
// events) and backoff spans, and the rebuilt Timeline must render them.
func TestTraceRendersRetries(t *testing.T) {
	_, d, m, _ := deployTinyTraced(t, 0.4, 4242)
	var rep *Report
	for j := 0; j < 12; j++ {
		r, err := d.Run(randomInput(m, int64(j)), RunOptions{})
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
		if r.Retries > 0 && r.BackoffWait > 0 {
			rep = r
			break
		}
	}
	if rep == nil {
		t.Skip("no job needed a backoff retry at this seed")
	}
	failed, backoffs, events := 0, 0, 0
	rep.Trace.Walk(func(s *obs.Span) {
		if s.Kind == obs.KindAttempt && s.Attrs["failed"] == "true" {
			failed++
			events += len(s.Events)
		}
		if s.Kind == obs.KindBackoff {
			backoffs++
		}
	})
	if failed == 0 {
		t.Fatal("retried job has no failed attempt spans")
	}
	if backoffs == 0 {
		t.Fatal("backoff waits missing from the span tree")
	}
	if events == 0 {
		t.Fatal("failed attempts carry no fault events")
	}
	tl := Timeline(rep, 72)
	if !strings.Contains(tl, "X") {
		t.Fatalf("timeline under faults must mark failed attempts with X:\n%s", tl)
	}
	if !strings.Contains(tl, "b") {
		t.Fatalf("timeline under faults must mark backoff waits with b:\n%s", tl)
	}
}

// Tracing is opt-in: untraced runs still get a best-effort span tree,
// but no cost events, and SumCostsAll degrades to zero rather than lying.
func TestUntracedRunsStillBuildTrace(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	rep, err := d.Run(randomInput(m, 3), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("untraced run should still carry a span tree")
	}
	if err := obs.ValidateTree(rep.Trace); err != nil {
		t.Fatalf("untraced span tree invalid: %v", err)
	}
	if got := obs.SumCostsAll([]*obs.Span{rep.Trace}); got != 0 {
		t.Fatalf("untraced tree should carry no cost events, SumCostsAll = %g", got)
	}
}

// Concurrent calls into traced jobs — whole jobs, and staged jobs
// driven stage by stage from other goroutines — each hold the tracer's
// job lock and bracket their own meter delta, so no job's Cost picks up
// another's charges: every job's tree replays its Cost, and all trees
// together replay the meter's total (run under -race).
func TestConcurrentTracedJobsKeepTheirCharges(t *testing.T) {
	e, d, m, tr := deployTinyTraced(t, 0, 0)
	const workers, jobs = 4, 3
	reps := make([][]*Report, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < jobs; n++ {
				in := randomInput(m, int64(10*w+n))
				var rep *Report
				var err error
				if w%2 == 0 {
					rep, err = d.Run(in, RunOptions{Sequential: n%2 == 0})
				} else {
					var sj *StagedJob
					sj, err = d.BeginStaged(in, RunOptions{})
					at := sj.InputReady()
					for err == nil && sj.next < len(d.parts) {
						var svc time.Duration
						svc, err = sj.RunStage(at)
						at += svc
					}
					if err == nil {
						_, err = sj.Finish()
					}
					rep = sj.Rep()
				}
				if err != nil {
					t.Errorf("worker %d job %d: %v", w, n, err)
					return
				}
				reps[w] = append(reps[w], rep)
			}
		}(w)
	}
	wg.Wait()
	var trees []*obs.Span
	for w := range reps {
		for n, rep := range reps[w] {
			sum := obs.SumCostsAll([]*obs.Span{rep.Trace})
			if diff := sum - rep.Cost; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("worker %d job %d (%s): tree replays %.18f, Cost %.18f", w, n, rep.Mode, sum, rep.Cost)
			}
			trees = append(trees, rep.Trace)
		}
	}
	if got, want := obs.SumCostsAll(trees), e.meter.Total(); got != want {
		t.Errorf("trees replay %v, meter total %v", got, want)
	}
	if got := len(tr.Jobs()); got != workers*jobs {
		t.Errorf("tracer collected %d trees, want %d", got, workers*jobs)
	}
}
