package coordinator

import (
	"time"

	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/obs"
	"ampsinf/internal/tensor"
)

// invokeDispatchLatency is the platform latency of issuing an (async or
// sync) function invocation.
const invokeDispatchLatency = 30 * time.Millisecond

// LambdaRun reports one partition invocation within a job.
type LambdaRun struct {
	Cold bool
	// Phase decomposition of the handler's simulated time (the paper's
	// Fig 5/6 quantities):
	Init    time.Duration // platform start + runtime overhead + deps init
	Load    time.Duration // model/weights deserialization
	Read    time.Duration // input transfer from S3
	Compute time.Duration // forward pass
	Write   time.Duration // output transfer to S3
}

// phaseSplit reports an invocation as a LambdaRun, its phases classified.
func phaseSplit(res *lambda.Result) LambdaRun {
	lr := LambdaRun{Cold: res.ColdStart}
	for _, ph := range res.Phases {
		switch ph.Name {
		case "load-weights":
			lr.Load += ph.Duration
		case "s3-read":
			lr.Read += ph.Duration
		case "compute":
			lr.Compute += ph.Duration
		case "s3-write":
			lr.Write += ph.Duration
		default: // coldstart, overhead, deps-init
			lr.Init += ph.Duration
		}
	}
	return lr
}

// Report describes one inference job.
type Report struct {
	Mode       string
	Completion time.Duration
	// Elapsed is a failed job's committed simulated time when it stopped
	// (the failure trace's root Duration, for jobs that build one).
	Elapsed time.Duration
	// Cost is the job's marginal charge: execution, invocations, S3
	// requests and intermediate storage — including everything failed
	// attempts billed before their retries succeeded. It has one rule on
	// every driver, traced or pooled: the sum of the meter deltas of the
	// job's calls (Run's one call; BeginStaged, each RunStage, Finish).
	Cost      float64
	Output    *tensor.Tensor
	PerLambda []LambdaRun
	// Fault-recovery aggregates across the job (input upload included):
	Retries        int           // total retried operations
	FaultsInjected int           // faults the job absorbed
	BackoffWait    time.Duration // total backoff the job waited out

	// Resilience aggregates (zero unless the matching policy is on):
	Hedges        int     // speculative duplicates launched
	HedgeWins     int     // operations won by the hedge
	ShortCircuits int     // attempts consumed by an open breaker
	BudgetDenied  int     // retries/hedges skipped by the global budget
	WastedSpend   float64 // execution spend on failed/cancelled invocations

	// Trace is the job's span tree (job → upload/invocations → attempts
	// → phases) on the simulated clock. Built unless the caller opted
	// out via RunOptions.NoTrace — failed jobs and hedge-won jobs always
	// carry one regardless, so forced-sample outcomes keep their spans.
	// When the deployment has a Tracer the spans additionally carry the
	// exact charges the job billed, so obs.SumCostsAll over the trees of
	// every job served against one meter reproduces its total.
	Trace *obs.Span

	// job points back at the record the job ran on; ReleaseReport uses
	// it to return a pooled record — this Report included — to the
	// deployment's free list.
	job *job
}

// RunOptions tunes one job run, whole (Run) or staged (BeginStaged).
type RunOptions struct {
	// Sequential invokes partition i+1 only after partition i returns —
	// the execution model behind the paper's formulation, where the
	// response time is the sum of per-lambda times (Eq. 2). The default
	// eager schedule invokes every partition at job start, so dependency
	// initialization and weight loading overlap upstream execution and
	// each function waits (billed) for its input to appear in S3: how
	// the deployed system reaches the completion times of the paper's
	// Tables 3 and 5. A staged job's scheduler picks its stages' starts
	// and ignores it.
	Sequential bool
	// Deadline is the job's completion budget (0 = none; negative is
	// rejected). Once the job's committed simulated time cannot cover
	// another attempt, operations fail fast with a DeadlineError instead
	// of retrying blind. A staged job's stage starts count against it,
	// so a request that queued too long behind earlier pipeline stages
	// fails fast.
	Deadline time.Duration
	// Batch is the number of member requests stacked into the job's
	// input. Purely descriptive: above 1 it lands on the trace so batched
	// jobs are recognizable in exports.
	Batch int
	// NoTrace skips materializing the success span tree (Report.Trace
	// stays nil), the head-sampling hook internal/serving uses to stop
	// allocating a tree per request. Cost is the same either way: the
	// job's meter deltas, never its tree. Failure traces are still built
	// (they carry the failed job's charges), and a job whose hedge won
	// builds its tree regardless so hedge-won outcomes are always sampled.
	NoTrace bool
	// Lean runs the job on the deployment's pooled job record (see
	// job.go): zero steady-state allocations, Report.Trace always nil
	// (failures and hedge wins included), Cost bit-identical to a traced
	// job's. The caller must hand the Report back via ReleaseReport
	// once done and must not retain it — the streaming schedulers'
	// contract. Implies NoTrace.
	Lean bool
}

// Run is the one whole-job entry point: it serves one input — an image,
// or a tensor.Stack of images as one batched pass — under opts. (A
// parallel batch is Platform().ResetWarm on every function before each
// image's Run.) On failure the returned report, when non-nil, carries
// a partial trace holding the exact charges the failed job billed, so
// serving-level cost attribution stays exact.
func (d *Deployment) Run(input *tensor.Tensor, opts RunOptions) (*Report, error) {
	sched := scheduleEager
	if opts.Sequential {
		sched = scheduleSequential
	}
	return d.run(input, sched, opts)
}

// RunEager is Run with the default options: the eager schedule. (The
// benchmark in bench/ calls it.)
func (d *Deployment) RunEager(input *tensor.Tensor) (*Report, error) {
	return d.Run(input, RunOptions{})
}

// run is the whole-job driver: it walks the whole chain in one call,
// each step settling its partition's turn as it ends.
func (d *Deployment) run(input *tensor.Tensor, sched schedule, opts RunOptions) (*Report, error) {
	j, err := d.begin(input, sched, opts)
	defer j.leave()
	if err != nil {
		return &j.rep, err
	}
	for j.next < len(d.parts) {
		var start time.Duration // an eager job dispatches every partition at its start
		if sched == scheduleSequential {
			start = j.ready(j.next)
		}
		if _, err := j.step(start); err != nil {
			j.fail()
			return &j.rep, err
		}
	}
	return &j.rep, j.finish()
}

// recordJobMetrics folds one finished job, run on schedule sched, into
// the metrics registry through the handles resolved at Deploy.
func (d *Deployment) recordJobMetrics(rep *Report, sched schedule) {
	jh := &d.jh
	mx, ts := d.cfg.Metrics, d.cfg.Series
	jobs, tsJobs := jh.jobs[sched], jh.tsJobs[sched]
	completion := rep.Completion.Seconds()
	w := mx.Begin()
	w.Inc(jobs, 1)
	w.Observe(jh.completion, completion)
	w.Add(jh.cost, rep.Cost)
	w.Inc(jh.retries, int64(rep.Retries))
	w.Inc(jh.faults, int64(rep.FaultsInjected))
	w.Add(jh.backoff, rep.BackoffWait.Seconds())
	// Resilience counters appear only when the mechanisms fire, so
	// zero-value policies leave metrics snapshots unchanged.
	if rep.Hedges > 0 {
		w.Inc(jh.hedges, int64(rep.Hedges))
		w.Inc(jh.hedgeWins, int64(rep.HedgeWins))
	}
	if rep.ShortCircuits > 0 {
		w.Inc(jh.shortCircuits, int64(rep.ShortCircuits))
	}
	if rep.WastedSpend > 0 {
		w.Add(jh.wastedSpend, rep.WastedSpend)
	}
	for i := range rep.PerLambda {
		lr := &rep.PerLambda[i]
		w.Add(jh.phaseInit, lr.Init.Seconds())
		w.Add(jh.phaseLoad, lr.Load.Seconds())
		w.Add(jh.phaseRead, lr.Read.Seconds())
		w.Add(jh.phaseCompute, lr.Compute.Seconds())
		w.Add(jh.phaseWrite, lr.Write.Seconds())
	}
	w.End()
	if ts != nil {
		at := d.cfg.Platform.Now()
		w := ts.Begin()
		w.Inc(tsJobs, at, 1)
		w.Observe(jh.tsCompletion, at, completion)
		w.Add(jh.tsCost, at, rep.Cost)
		if rep.Retries > 0 {
			w.Inc(jh.tsRetries, at, int64(rep.Retries))
		}
		w.End()
	}
}

// recordRetries folds one operation's retry record into the job report.
func (d *Deployment) recordRetries(rep *Report, ri *retryInfo) {
	rep.Retries += ri.retries()
	rep.FaultsInjected += ri.faults
	rep.BackoffWait += ri.backoff
	rep.Hedges += ri.hedges
	rep.HedgeWins += ri.hedgeWins
	rep.ShortCircuits += ri.shortCircuits
	rep.BudgetDenied += ri.budgetDenied
	rep.WastedSpend += ri.wastedCost
}

func (d *Deployment) meterTotal() float64 {
	return d.cfg.Platform.Meter().Total()
}
