package coordinator

import (
	"fmt"
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
	FunctionName string
	MemoryMB     int
	Cold         bool
	// Active is the handler's own simulated time.
	Active time.Duration
	// Billed is the settled billed lifetime (= Active in sequential mode;
	// includes input-polling wait in eager mode).
	Billed time.Duration
	// Phase decomposition of Active (the paper's Fig 5/6 quantities):
	Init    time.Duration // platform start + runtime overhead + deps init
	Load    time.Duration // model/weights deserialization
	Read    time.Duration // input transfer from S3
	Compute time.Duration // forward pass
	Write   time.Duration // output transfer to S3

	// Fault-recovery record (zero on a clean run):
	Attempts       int           // invocation attempts (1 = no retries)
	InjectedFaults []string      // fault kind per failed attempt
	BackoffWait    time.Duration // total backoff before success
	Wasted         time.Duration // simulated time failed attempts burned
}

// phaseSplit classifies an invocation's phases into the LambdaRun fields.
func phaseSplit(res *lambda.Result) (lr LambdaRun) {
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
	// attempts billed before their retries succeeded.
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
	// When the deployment has a Tracer the spans additionally carry
	// exact cost attributions such that obs.SumCosts(Trace) reproduces
	// Cost.
	Trace *obs.Span

	// job points back at the record the job ran on; ReleaseReport uses
	// it to return a pooled record — this Report included — to the
	// deployment's free list.
	job *job
}

// RunOptions tunes one job run.
type RunOptions struct {
	// Sequential serves with the strictly sequential schedule instead
	// of the default overlapped (eager) one.
	Sequential bool
	// Deadline is the job's completion budget (0 = none; negative is
	// rejected). Once the job's committed simulated time cannot cover
	// another attempt, operations fail fast with a DeadlineError instead
	// of retrying blind.
	Deadline time.Duration
	// NoTrace skips materializing the success span tree (Report.Trace
	// stays nil), the head-sampling hook internal/serving uses to stop
	// allocating a tree per request. Cost stays exact — Report.Cost is
	// the meter delta either way. Failure traces are still built (they
	// carry the failed job's charges), and a job whose hedge won builds
	// its tree regardless so hedge-won outcomes are always sampled.
	NoTrace bool
	// Lean runs the job on the deployment's pooled job record (see
	// job.go): zero steady-state allocations, Report.Trace always nil
	// (failures and hedge wins included), Cost still the exact meter
	// delta. The caller must hand the Report back via ReleaseReport
	// once done and must not retain it — the streaming schedulers'
	// contract. Implies NoTrace.
	Lean bool
}

// Run serves one input under opts. On failure the returned report,
// when non-nil, carries a partial trace holding the exact charges the
// failed job billed, so serving-level cost attribution stays exact.
func (d *Deployment) Run(input *tensor.Tensor, opts RunOptions) (*Report, error) {
	mode := "eager"
	if opts.Sequential {
		mode = "sequential"
	}
	return d.run(input, mode, StagedOptions{Deadline: opts.Deadline, NoTrace: opts.NoTrace, Lean: opts.Lean})
}

// RunSequential serves one input with strictly sequential invocations:
// partition i+1 is invoked after partition i returns — the execution
// model behind the paper's formulation, where the response time is the
// sum of per-lambda times (Eq. 2).
func (d *Deployment) RunSequential(input *tensor.Tensor) (*Report, error) {
	return d.run(input, "sequential", StagedOptions{})
}

// RunEager serves one input with the measurement-matching schedule: all
// partition functions are invoked at job start so that dependency
// initialization and weight loading overlap with upstream execution; each
// function waits (billed) until its input appears in S3. This is how the
// deployed system achieves the completion times of the paper's Tables 3
// and 5.
func (d *Deployment) RunEager(input *tensor.Tensor) (*Report, error) {
	return d.run(input, "eager", StagedOptions{})
}

// run is the whole-job driver: it walks the whole chain in one call and
// settles every partition once the chain succeeded — storage holds
// included, so a run that fails midway has billed none of them.
func (d *Deployment) run(input *tensor.Tensor, mode string, opts StagedOptions) (*Report, error) {
	j, err := d.begin(input, mode, opts)
	if err != nil {
		return &j.rep, err
	}
	defer j.close()
	for j.next < len(d.parts) {
		res, info, err := j.invoke()
		if err != nil {
			j.fail()
			return &j.rep, err
		}
		// The job's committed serial time grows by this partition's turn
		// in the chain — the quantity every later deadline check gates
		// on. (In eager mode this is a conservative overestimate of the
		// overlapped schedule.)
		j.elapsed += info.delay() + invokeDispatchLatency + res.Duration
	}
	if err := j.decodeOutput(); err != nil {
		return &j.rep, err
	}
	if j.eager {
		j.settleEager()
	} else {
		now := d.cfg.Platform.Now()
		j.rep.Completion = j.upDur
		for i, res := range j.results {
			j.rep.Completion += j.infos[i].delay() + invokeDispatchLatency + res.Duration
			// The container's real busy window ends when its turn in the
			// sequential chain does, not when its own handler alone would
			// (the platform settled it at job start + handler duration).
			d.cfg.Platform.OccupyUntil(d.parts[i].fnName, res.ContainerID, now+j.rep.Completion)
			j.settlePart(i, phaseSplit(res), res.Duration, res.BilledDuration)
		}
	}
	j.complete()
	return &j.rep, nil
}

// recordJobMetrics folds one finished job into the metrics registry
// through the handles resolved at Deploy; only a mode outside the
// coordinator's own three falls back to formatting a label.
func (d *Deployment) recordJobMetrics(rep *Report) {
	jh := &d.jh
	mx, ts := d.cfg.Metrics, d.cfg.Series
	jobs, tsJobs := jh.jobsSeq, jh.tsJobsSeq
	switch rep.Mode {
	case "sequential":
	case "eager":
		jobs, tsJobs = jh.jobsEager, jh.tsJobsEager
	case "pipelined":
		jobs, tsJobs = jh.jobsPipe, jh.tsJobsPipe
	default: // resolved outside the write sections: resolving takes the registry's lock
		name := fmt.Sprintf("coordinator_jobs_total{mode=%q}", rep.Mode)
		jobs, tsJobs = mx.CounterHandle(name), ts.CounterHandle(name)
	}
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
	rep.FaultsInjected += len(ri.faults)
	rep.BackoffWait += ri.backoff
	rep.Hedges += ri.hedges
	rep.HedgeWins += ri.hedgeWins
	rep.ShortCircuits += ri.shortCircuits
	rep.BudgetDenied += ri.budgetDenied
	rep.WastedSpend += ri.wastedCost
}

// settleEager reconstructs the overlapped schedule from the per-phase
// timings: every function starts at job time ~0 (one dispatch latency),
// runs its initialization immediately, then blocks until its input is
// available. Billed lifetime spans dispatch to exit, including the
// wait. Retried partitions lose their head start: the failed attempts'
// execution and backoff waits push the successful attempt's work back
// (the failed attempts themselves were settled as they happened).
func (j *job) settleEager() {
	pl := j.d.cfg.Platform
	avail := j.upDur // when partition 0's input is ready in S3
	for i, res := range j.results {
		lr := phaseSplit(res)
		initDone := lr.Init + lr.Load
		work := lr.Read + lr.Compute + lr.Write
		start := invokeDispatchLatency + initDone
		if avail > start {
			start = avail
		}
		start += j.infos[i].delay()
		exit := start + work
		billed := exit - invokeDispatchLatency
		j.settlePart(i, lr, billed, billed)
		// The container's true lifetime spans dispatch to exit — the
		// input-polling wait included — which is longer than the
		// handler-active window the platform recorded at invoke time.
		pl.OccupyUntil(j.d.parts[i].fnName, res.ContainerID, pl.Now()+exit)
		avail = exit
	}
	j.rep.Completion = avail
}

// BatchReport aggregates a multi-image batch job.
type BatchReport struct {
	Mode       string
	Completion time.Duration
	Cost       float64
	Jobs       []*Report
}

// RunBatchSequential serves the inputs one after another through the same
// warm pipeline (the paper's AMPS-Inf-Seq of Fig 13): completion is the
// sum of per-image completions.
func (d *Deployment) RunBatchSequential(inputs []*tensor.Tensor) (*BatchReport, error) {
	br := &BatchReport{Mode: "batch-sequential"}
	for i, in := range inputs {
		rep, err := d.RunEager(in)
		if err != nil {
			return nil, fmt.Errorf("coordinator: batch image %d: %w", i, err)
		}
		br.Jobs = append(br.Jobs, rep)
		br.Completion += rep.Completion
		br.Cost += rep.Cost
	}
	return br, nil
}

// RunBatchParallel serves each input in its own concurrently-running
// pipeline (fresh containers per job, as parallel invocations cannot
// share a warm container): completion is the maximum per-image
// completion, cost the sum. ResetWarm discards only idle containers —
// on a clocked platform a mid-flight sandbox keeps executing; here the
// jobs are replayed one at a time, so each starts from a cold pool.
func (d *Deployment) RunBatchParallel(inputs []*tensor.Tensor) (*BatchReport, error) {
	br := &BatchReport{Mode: "batch-parallel"}
	for i, in := range inputs {
		for _, p := range d.parts {
			d.cfg.Platform.ResetWarm(p.fnName)
		}
		rep, err := d.RunEager(in)
		if err != nil {
			return nil, fmt.Errorf("coordinator: batch image %d: %w", i, err)
		}
		br.Jobs = append(br.Jobs, rep)
		if rep.Completion > br.Completion {
			br.Completion = rep.Completion
		}
		br.Cost += rep.Cost
	}
	return br, nil
}

// RunBatched stacks the inputs into one batch tensor and serves it in a
// single pipeline pass (one invocation per partition, compute scaled by
// the batch size).
func (d *Deployment) RunBatched(inputs []*tensor.Tensor) (*Report, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("coordinator: empty batch")
	}
	stacked, err := tensor.Stack(inputs)
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	return d.RunEager(stacked)
}

func (d *Deployment) meterTotal() float64 {
	return d.cfg.Platform.Meter().Total()
}
