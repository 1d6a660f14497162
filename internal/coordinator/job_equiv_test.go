package coordinator

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
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
	denied    int64
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
	for i := range v.PerLambda {
		v.PerLambda[i].InjectedFaults = append([]string(nil), v.PerLambda[i].InjectedFaults...)
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
			sj, rerr = d.BeginStaged(in, StagedOptions{Deadline: deadline, Batch: in.Shape()[0], Lean: lean})
			rep = sj.Rep()
			at := sj.InputReady()
			for rerr == nil && sj.next < len(d.parts) {
				e.platform.AdvanceTo(clock + at)
				var svc time.Duration
				svc, rerr = sj.RunStage(at)
				at += svc
			}
			if rerr == nil {
				rep, rerr = sj.Finish(at)
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
	tv.denied = d.BudgetDenied()
	tv.tokens = d.budgetTokens
	var buf bytes.Buffer
	if err := cfg.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tv.metrics = buf.String()
	return tv
}

// A pooled job (RunOptions.Lean / StagedOptions.Lean) and a traced job
// are one job record driven the same way: everything a caller can
// observe — timings, per-lambda records, retry/hedge/breaker/budget
// aggregates, the error's classification, the meter's per-category
// totals, the coordinator's metrics and what is left in the store — must
// be equal with no tolerance, on every driver. Cost is the meter delta
// on both sides wherever the traced side reads the meter (every
// whole-job run; staged runs without a Tracer), so it is held to ==
// there; a traced staged job under a Tracer reports its span replay,
// which associates the same charges in another order (1e-9 relative).
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
						replayed := driver == "staged" && !side.lean && side.tracer
						comparePooledTraced(t, side.name, pooled, got, replayed, skip)
					}
				})
			}
		}
	}
}

func comparePooledTraced(t *testing.T, side string, want, got trialView, replayed, skip bool) {
	t.Helper()
	if len(got.jobs) != len(want.jobs) {
		t.Fatalf("%s: %d jobs, pooled ran %d", side, len(got.jobs), len(want.jobs))
	}
	for n := range want.jobs {
		w, g := want.jobs[n], got.jobs[n]
		if replayed {
			if diff := math.Abs(g.Cost - w.Cost); diff > 1e-9*math.Max(math.Abs(w.Cost), 1e-12) {
				t.Fatalf("%s job %d: replayed cost %.18g, pooled %.18g", side, n, g.Cost, w.Cost)
			}
			g.Cost = w.Cost
		}
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
	if got.leftover != want.leftover || got.denied != want.denied || got.tokens != want.tokens {
		t.Fatalf("%s: leftover/denied/tokens %d/%d/%v, pooled %d/%d/%v", side,
			got.leftover, got.denied, got.tokens, want.leftover, want.denied, want.tokens)
	}
	// The job-cost total folds each job's Cost, so it inherits the replay's ulps.
	if !replayed && got.metrics != want.metrics {
		t.Fatalf("%s: coordinator metrics differ from the pooled run's:\n got  %s\n want %s", side, got.metrics, want.metrics)
	}
}
