package coordinator

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// jobView is everything a caller can observe of one finished job,
// copied out before a pooled report goes back to its free list.
type jobView struct {
	Completion, Elapsed   time.Duration
	Cost                  float64
	PerLambda             []LambdaRun
	Retries, Faults       int
	BackoffWait           time.Duration
	Hedges, HedgeWins     int
	ShortCircuits, Denied int
	WastedSpend           float64
	ErrClass              string
	Output                *tensor.Tensor
}

// trialView is one deployment's observable state after a run of jobs.
type trialView struct {
	jobs      []jobView
	breakdown map[string]float64
	leftover  int64
	tokens    float64
	metrics   string
}

// errClass names an error's classification, never its text (which
// embeds the job id).
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case IsDeadlineExceeded(err):
		return "deadline"
	case IsBudgetExhausted(err):
		return "budget"
	case errors.As(err, new(*BreakerOpenError)):
		return "breaker"
	}
	if fe := faultOf(err); fe != nil {
		return "fault:" + fe.Kind.String()
	}
	return "other"
}

func viewOf(rep *Report, err error) jobView {
	v := jobView{
		Completion: rep.Completion, Elapsed: rep.Elapsed, Cost: rep.Cost,
		PerLambda: append([]LambdaRun(nil), rep.PerLambda...),
		Retries:   rep.Retries, Faults: rep.FaultsInjected, BackoffWait: rep.BackoffWait,
		Hedges: rep.Hedges, HedgeWins: rep.HedgeWins,
		ShortCircuits: rep.ShortCircuits, Denied: rep.BudgetDenied,
		WastedSpend: rep.WastedSpend, ErrClass: errClass(err), Output: rep.Output,
	}
	return v
}

// jobTrial serves a fixed run of jobs on a fresh tinycnn deployment
// with every resilience policy on, through one driver ("sequential",
// "eager" or "staged"), on pooled scratch or as traced jobs, with or
// without a Tracer on the deployment.
func jobTrial(t *testing.T, driver string, lean, tracer, skip bool, rate float64, seed int64) trialView {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 2 {
		t.Fatalf("want a multi-partition plan, got %d", len(plan.Lambdas))
	}
	e := newEnv()
	e.platform.EnableClock()
	if rate > 0 {
		inj := faults.New(faults.Uniform(rate, seed))
		e.platform.SetInjector(inj)
		e.store.SetInjector(inj)
	}
	cfg := e.config()
	cfg.SkipCompute = skip
	cfg.Metrics = obs.NewMetrics()
	if tracer {
		cfg.Tracer = obs.NewTracer()
		e.meter.SetObserver(cfg.Tracer.RecordCost)
	}
	cfg.Retry = RetryPolicy{MaxAttempts: 3, JitterSeed: seed + 1}
	cfg.Hedge = HedgePolicy{Delay: time.Millisecond, MaxRate: 1, JitterSeed: 9}
	cfg.Breaker = BreakerPolicy{ConsecutiveFailures: 3, OpenFor: 2 * time.Second}
	cfg.Budget = BudgetPolicy{MaxTokens: 12, EarnPerSuccess: 0.5}
	d, err := Deploy(cfg, m, nn.InitWeights(m, 42), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()

	var tv trialView
	var clock time.Duration
	for n := 0; n < 14; n++ {
		in := randomInput(m, int64(n))
		if n%4 == 3 {
			in, err = tensor.Stack([]*tensor.Tensor{in, randomInput(m, int64(100+n))})
			if err != nil {
				t.Fatal(err)
			}
		}
		var deadline time.Duration // every fifth job runs on a budget it may miss
		switch {
		case n == 6:
			deadline = time.Nanosecond
		case n%5 == 4:
			deadline = 4 * time.Second
		}
		e.platform.AdvanceTo(clock)
		var rep *Report
		var rerr error
		if driver == "staged" {
			var sj *StagedJob
			sj, rerr = d.BeginStaged(in, RunOptions{Deadline: deadline, Batch: in.Shape()[0], Lean: lean})
			rep = sj.Rep()
			at := sj.InputReady()
			for rerr == nil && sj.next < len(d.parts) {
				e.platform.AdvanceTo(clock + at)
				var svc time.Duration
				svc, rerr = sj.RunStage(at)
				at += svc
			}
			if rerr == nil {
				rep, rerr = sj.Finish()
				if rerr == nil && rep.Completion != at {
					t.Fatalf("job %d: staged completion %v, want the last stage's end %v", n, rep.Completion, at)
				}
			}
		} else {
			rep, rerr = d.Run(in, RunOptions{Sequential: driver == "sequential", Deadline: deadline, Lean: lean})
		}
		if rep == nil {
			t.Fatalf("job %d: no report (err %v)", n, rerr)
		}
		if lean != (rep.Trace == nil) {
			t.Fatalf("job %d: lean=%v but Trace nil=%v", n, lean, rep.Trace == nil)
		}
		v := viewOf(rep, rerr)
		tv.jobs = append(tv.jobs, v)
		d.ReleaseReport(rep)
		if free := len(d.leanFree); lean && free != 1 {
			t.Fatalf("job %d: %d pooled job records on the free list after ReleaseReport, want 1", n, free)
		} else if !lean && free != 0 {
			t.Fatalf("job %d: a traced job put %d records on the free list", n, free)
		}
		clock += max(v.Completion, v.Elapsed) + 100*time.Millisecond
	}
	tv.breakdown = e.meter.Breakdown()
	tv.leftover = e.store.TotalBytes()
	tv.tokens = d.budgetTokens
	var buf bytes.Buffer
	if err := cfg.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tv.metrics = buf.String()
	return tv
}

// A pooled job (RunOptions.Lean) and a traced job
// are one job record driven the same way: everything a caller can
// observe — timings, per-lambda records, retry/hedge/breaker/budget
// aggregates, the error's classification, the meter's per-category
// totals, the coordinator's metrics and what is left in the store — must
// be equal with no tolerance, on every driver. Cost included: both
// sides sum the meter deltas of the job's calls, traced or not.
func TestPooledJobMatchesTracedJob(t *testing.T) {
	type fault struct {
		rate float64
		seed int64
	}
	faultCases := []fault{{0, 0}, {0.3, 1}, {0.3, 2}, {0.3, 3}}
	for _, driver := range []string{"sequential", "eager", "staged"} {
		for _, skip := range []bool{false, true} {
			for _, fc := range faultCases {
				name := fmt.Sprintf("%s/skip=%v/rate=%v/seed=%d", driver, skip, fc.rate, fc.seed)
				t.Run(name, func(t *testing.T) {
					pooled := jobTrial(t, driver, true, false, skip, fc.rate, fc.seed)
					classes := map[string]int{}
					retries, hedges := 0, 0
					for _, v := range pooled.jobs {
						classes[v.ErrClass]++
						retries += v.Retries
						hedges += v.Hedges
					}
					t.Logf("outcomes %v, %d retries, %d hedges", classes, retries, hedges)
					if hedges == 0 || classes[""] == 0 || classes["deadline"] == 0 {
						t.Fatalf("trial exercises too little: outcomes %v, %d hedges", classes, hedges)
					}
					if fc.rate > 0 && (retries == 0 || classes["budget"] == 0) {
						t.Fatalf("faulty trial exercises too little: outcomes %v, %d retries", classes, retries)
					}
					if pooled.leftover != 0 {
						t.Fatalf("pooled jobs left %d bytes in the store", pooled.leftover)
					}
					for _, side := range []struct {
						name         string
						lean, tracer bool
					}{
						{"pooled+tracer", true, true},
						{"traced", false, false},
						{"traced+tracer", false, true},
					} {
						got := jobTrial(t, driver, side.lean, side.tracer, skip, fc.rate, fc.seed)
						comparePooledTraced(t, side.name, pooled, got, skip)
					}
				})
			}
		}
	}
}

func comparePooledTraced(t *testing.T, side string, want, got trialView, skip bool) {
	t.Helper()
	if len(got.jobs) != len(want.jobs) {
		t.Fatalf("%s: %d jobs, pooled ran %d", side, len(got.jobs), len(want.jobs))
	}
	for n := range want.jobs {
		w, g := want.jobs[n], got.jobs[n]
		if g.Cost != w.Cost {
			t.Fatalf("%s job %d: cost %.18g, pooled %.18g (both meter deltas)", side, n, g.Cost, w.Cost)
		}
		// Under SkipCompute a pooled job runs on cached encodings and
		// decodes no prediction; otherwise the predictions must agree.
		if !skip && w.ErrClass == "" && !tensor.AllClose(w.Output, g.Output, 0) {
			t.Fatalf("%s job %d: prediction differs from the pooled job's", side, n)
		}
		w.Output, g.Output = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s job %d differs from the pooled job:\n got  %+v\n want %+v", side, n, g, w)
		}
	}
	if !reflect.DeepEqual(want.breakdown, got.breakdown) {
		t.Fatalf("%s: meter breakdown %v, pooled %v", side, got.breakdown, want.breakdown)
	}
	if got.leftover != want.leftover || got.tokens != want.tokens {
		t.Fatalf("%s: leftover/tokens %d/%v, pooled %d/%v", side,
			got.leftover, got.tokens, want.leftover, want.tokens)
	}
	if got.metrics != want.metrics {
		t.Fatalf("%s: coordinator metrics differ from the pooled run's:\n got  %s\n want %s", side, got.metrics, want.metrics)
	}
}

// failedJob runs one tinycnn job with no retries on a fresh deployment
// under a fault injector (rate 0.35, seed) through one driver; a staged
// job's stages start where the sequential chain dispatches them. It
// returns the report, the error, the plan and the meter's per-category
// totals.
func failedJob(t *testing.T, driver string, seed int64) (*Report, error, *optimizer.Plan, map[string]float64) {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv()
	e.platform.EnableClock()
	inj := faults.New(faults.Uniform(0.35, seed))
	e.platform.SetInjector(inj)
	e.store.SetInjector(inj)
	d, err := Deploy(e.config(), m, nn.InitWeights(m, 42), plan)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()
	in := randomInput(m, 0)
	var rep *Report
	if driver == "staged" {
		var sj *StagedJob
		sj, err = d.BeginStaged(in, RunOptions{})
		at := sj.InputReady()
		for err == nil && sj.next < len(d.parts) {
			e.platform.AdvanceTo(at)
			var svc time.Duration
			svc, err = sj.RunStage(at)
			at += svc
		}
		if err == nil {
			_, err = sj.Finish()
		}
		rep = sj.Rep()
	} else {
		rep, err = d.Run(in, RunOptions{Sequential: driver == "sequential"})
	}
	return rep, err, plan, e.meter.Breakdown()
}

// A job that fails after some of its partitions completed has billed
// every completed turn, on every driver (the paper's Eq. 3 bills every
// partition that ran): its report lists the completed partitions, the
// execution and storage categories hold each completed turn's charge —
// an eager turn's execution billed from dispatch to exit, each turn's
// storage hold the intermediates stored at its dispatch for that long —
// and the sequential whole-job run bills exactly what the staged run on
// the same starts bills (the injector draws one seeded sequence, so
// every run fails at the same operation). Every driver reports the same
// Elapsed: the failed attempt's time counts on each. Seed 1 fails partition 1's
// output PUT; seed 21 fails partition 2's input GET, after partition 1
// held partition 0's output in the store.
func TestFailedJobBillsCompletedTurns(t *testing.T) {
	for _, fc := range []struct {
		seed      int64
		completed int
	}{{1, 1}, {21, 2}} {
		t.Run(fmt.Sprintf("seed=%d", fc.seed), func(t *testing.T) {
			drivers := []string{"staged", "sequential", "eager"}
			reps := map[string]*Report{}
			breakdowns := map[string]map[string]float64{}
			var plan *optimizer.Plan
			for _, driver := range drivers {
				var err error
				reps[driver], err, plan, breakdowns[driver] = failedJob(t, driver, fc.seed)
				if err == nil {
					t.Fatalf("%s: job succeeded", driver)
				}
			}
			// The staged driver is the reference for the completed turns'
			// phases: every driver runs the same invocations.
			ref := reps["staged"].PerLambda
			if len(ref) != fc.completed {
				t.Fatalf("staged: PerLambda lists %d partitions, want the %d completed", len(ref), fc.completed)
			}
			for _, driver := range drivers {
				rep, bd := reps[driver], breakdowns[driver]
				if !reflect.DeepEqual(rep.PerLambda, ref) {
					t.Errorf("%s: PerLambda %+v, want the completed partitions %+v", driver, rep.PerLambda, ref)
				}
				// Lay the completed turns out again from their phases.
				j := rep.job
				q := j.d.cfg.Platform.Quota()
				var wantExec, wantStorage float64
				var stored int64
				ready := j.upDur
				for i, lr := range ref {
					start, work := ready, ready+invokeDispatchLatency+lr.Init+lr.Load
					if driver == "eager" {
						start, work = 0, max(invokeDispatchLatency+lr.Init+lr.Load, ready)
					}
					exit := work + lr.Read + lr.Compute + lr.Write
					hold := exit - start - invokeDispatchLatency
					wantExec += q.ExecutionCost(plan.Lambdas[i].MemoryMB, hold)
					wantStorage += float64(stored) / (1 << 30) * hold.Seconds() * pricing.S3StoragePerGBSecond
					out := j.d.parts[i].model.Output().OutShape
					stored += int64(len(modelfmt.EncodeTensor(tensor.New(out...))))
					ready = exit
				}
				// The failed partition's one attempt ran and bills its own
				// duration; with no retries it holds no storage.
				failed := j.infos[fc.completed].steps[0].res
				wantExec += q.ExecutionCost(failed.MemoryMB, failed.Duration)
				if got := bd["lambda:execution"]; got != wantExec {
					t.Errorf("%s: lambda:execution %.12g, want the completed turns' and the failed attempt's %.12g", driver, got, wantExec)
				}
				if got := bd["s3:storage"]; got != wantStorage {
					t.Errorf("%s: s3:storage %.6g, want the completed turns' holds %.6g", driver, got, wantStorage)
				}
			}
			if fc.completed > 1 && breakdowns["staged"]["s3:storage"] == 0 {
				t.Error("no completed turn held an intermediate")
			}
			if !reflect.DeepEqual(breakdowns["sequential"], breakdowns["staged"]) {
				t.Errorf("sequential whole job billed %v, staged %v", breakdowns["sequential"], breakdowns["staged"])
			}
			// Every driver has committed the same time when the job fails:
			// the chain of completed turns, then what the failed attempt
			// burned.
			sj := reps["staged"].job
			want := sj.turns[fc.completed-1].exit + sj.infos[fc.completed].steps[0].res.Duration
			for _, driver := range drivers {
				if got := reps[driver].Elapsed; got != want {
					t.Errorf("%s: Elapsed %v, want the completed turns' and the failed attempt's %v", driver, got, want)
				}
			}
		})
	}
}
