package coordinator

import (
	"encoding/json"
	"fmt"
	"time"

	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/obs"
	"ampsinf/internal/tensor"
)

// StagedOptions configures one staged job.
type StagedOptions struct {
	// Deadline is the job's completion budget from its start (0 = the
	// deployment default). Stage starts count against it, so a request
	// that queued too long behind earlier pipeline stages fails fast.
	Deadline time.Duration
	// Batch is the number of member requests stacked into the job's
	// input (≥ 1). Purely descriptive: it lands on the trace so batched
	// jobs are recognizable in exports.
	Batch int
	// NoTrace skips materializing the success span tree, mirroring
	// RunOptions.NoTrace: the report's Cost falls back to the job's
	// meter-delta accumulator (exact), failure traces are still built,
	// and a job whose hedge won builds its tree regardless.
	NoTrace bool
	// Lean runs the job on the deployment's recycled scratch, mirroring
	// RunOptions.Lean: no span trees ever, Cost from the job's exact
	// per-stage meter deltas, and the caller must hand the Report back
	// via ReleaseReport once done. Implies NoTrace.
	Lean bool
}

// StagedJob executes one inference job stage by stage under an external
// scheduler — the execution mode behind internal/serving's pipelined
// scheduler, where partition i of request n overlaps with partition i+1
// of request n−1. The scheduler owns the schedule: it advances the
// platform clock to each stage's true start and calls RunStage with the
// stage's offset from the job start, so warm/cold decisions, in-flight
// accounting and container occupancy all see the real pipeline timeline.
// The job records the same retry, billing and trace material Run does;
// Finish assembles a span tree whose invoke spans sit at the scheduler's
// stage starts and whose cost events reproduce the job's exact charges.
//
// Unlike Run, a staged job does not hold the tracer's job lock across
// its lifetime (several staged jobs interleave on one scheduler
// goroutine); every billed operation brackets its own cost sink, and the
// finished tree is published atomically at Finish.
type StagedJob struct {
	d    *Deployment
	job  string
	st   *jobState
	rep  *Report
	opts StagedOptions
	// lj is the recycled scratch a lean staged job runs on (nil
	// otherwise); the StagedJob itself is then lj's embedded scratch.
	lj *leanJob

	rootBucket   *obs.CostBucket
	upDur        time.Duration
	upInfo       retryInfo
	results      []*lambda.Result
	infos        []retryInfo
	starts       []time.Duration
	partBuckets  []*obs.CostBucket
	storedBefore []int64
	prevKey      string
	prevBytes    int64
	next         int
	done         bool
	// spend accumulates the meter delta of each synchronous staged call.
	// Staged calls from interleaved jobs never overlap on the shared
	// meter (the scheduler runs them one at a time), so the delta of a
	// call belongs entirely to this job — the cost source when the
	// deployment has no tracer to replay span cost events from.
	spend float64
}

// BeginStaged opens a staged job: it assigns the job id and uploads the
// input (retrying transient store faults) at the current platform
// instant. On error the returned job is already finalized — its Report
// carries the failure trace with the exact charges the upload billed.
func (d *Deployment) BeginStaged(input *tensor.Tensor, opts StagedOptions) (*StagedJob, error) {
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	var sj *StagedJob
	var inKey string
	var inData []byte
	if opts.Lean {
		lj := d.acquireLean(input, opts.Deadline, "pipelined")
		sj = &lj.sj
		*sj = StagedJob{
			d: d, job: lj.id, opts: opts, rep: &lj.rep, st: &lj.st, lj: lj,
			results:      lj.results[:0],
			infos:        lj.infos[:0],
			starts:       lj.starts[:0],
			storedBefore: lj.storedBefore[:0],
		}
		inKey = lj.inKey
		if lj.enc != nil {
			inData = lj.enc.input
		} else {
			inData = modelfmt.EncodeTensor(input)
		}
	} else {
		tr := d.cfg.Tracer
		sj = &StagedJob{
			d: d, job: d.nextJobID(), opts: opts,
			rep:        &Report{Mode: "pipelined"},
			st:         d.newJobState(opts.Deadline),
			rootBucket: tr.NewBucket(),
		}
		inKey = sj.job + "/input"
		inData = modelfmt.EncodeTensor(input)
	}
	sj.st.anchored = true
	before := d.meterTotal()
	upDur, upInfo, err := d.putWithRetry(inKey, inData, sj.st)
	sj.spend += d.meterTotal() - before
	sj.upInfo = upInfo
	d.recordRetries(sj.rep, &upInfo)
	if err != nil {
		sj.fail()
		return sj, fmt.Errorf("coordinator: uploading input: %w", err)
	}
	sj.upDur = upDur + upInfo.backoff
	sj.st.elapsed = sj.upDur
	sj.prevKey = inKey
	if sj.lj == nil {
		n := len(d.parts)
		sj.results = make([]*lambda.Result, 0, n)
		sj.infos = make([]retryInfo, 0, n)
		sj.starts = make([]time.Duration, 0, n)
		sj.partBuckets = make([]*obs.CostBucket, 0, n)
		sj.storedBefore = make([]int64, 0, n)
	}
	return sj, nil
}

// Rep returns the job's report. After a failed Begin/RunStage/Finish it
// holds the failure trace and the exact charges the job billed before
// giving up.
func (sj *StagedJob) Rep() *Report { return sj.rep }

// InputReady is the offset from the job's start at which the uploaded
// input is available in the store — the earliest stage-0 start.
func (sj *StagedJob) InputReady() time.Duration { return sj.upDur }

// Stages is the number of partition stages the job runs through.
func (sj *StagedJob) Stages() int { return len(sj.d.parts) }

// NextStage is the index of the next stage RunStage would execute.
func (sj *StagedJob) NextStage() int { return sj.next }

// RunStage invokes the job's next partition. start is the stage's
// offset from the job start on the scheduler's clock; the caller must
// have advanced the platform clock to the matching absolute instant
// first, so the invocation's warm/cold and throttle decisions see the
// true schedule. Returns the stage's service time — retry delays, the
// dispatch latency and the successful attempt's execution. On error the
// job is finalized with a failure trace; the returned duration is the
// time the failed stage burned.
func (sj *StagedJob) RunStage(start time.Duration) (time.Duration, error) {
	d := sj.d
	if sj.done {
		return 0, fmt.Errorf("coordinator: staged job %s already finished", sj.job)
	}
	if sj.next >= len(d.parts) {
		return 0, fmt.Errorf("coordinator: staged job %s has no stage %d", sj.job, sj.next)
	}
	i := sj.next
	p := d.parts[i]
	sj.storedBefore = append(sj.storedBefore, sj.prevBytes)
	sj.starts = append(sj.starts, start)
	// The stage's start offset is the job's committed serial time: queue
	// waits behind earlier pipeline stages count against the deadline.
	sj.st.elapsed = start
	var payload []byte
	if sj.lj != nil {
		payload = sj.lj.payloads[i]
	} else {
		payload, _ = json.Marshal(invokePayload{Job: sj.job, InputKey: sj.prevKey})
	}
	before := d.meterTotal()
	res, info, err := d.invokeWithRetry(p, payload, false, sj.prevBytes, sj.st)
	sj.infos = append(sj.infos, info)
	d.recordRetries(sj.rep, &info)
	if err != nil {
		sj.spend += d.meterTotal() - before
		sj.st.elapsed = start + info.delay()
		sj.fail()
		return info.delay(), &lazyError{"coordinator: partition %d: %v", i, err}
	}
	svc := info.delay() + invokeDispatchLatency + res.Duration
	sj.st.elapsed = start + svc
	// The container's true busy window ends when its turn in the staged
	// schedule does (the platform settled it at stage start + handler
	// duration, without the retry delays).
	d.cfg.Platform.OccupyUntil(p.fnName, res.ContainerID, d.cfg.Platform.Now()+svc)
	if sj.lj != nil {
		d.cfg.Store.ChargeStorage(sj.storedBefore[i], res.Duration)
	} else {
		bucket := d.cfg.Tracer.NewBucket()
		d.chargeInto(bucket, func() {
			d.cfg.Store.ChargeStorage(sj.storedBefore[i], res.Duration)
		})
		sj.partBuckets = append(sj.partBuckets, bucket)
	}
	sj.spend += d.meterTotal() - before
	sj.results = append(sj.results, res)
	lr := phaseSplit(res)
	lr.FunctionName = p.fnName
	lr.MemoryMB = res.MemoryMB
	lr.Cold = res.ColdStart
	lr.Active = res.Duration
	lr.Billed = res.BilledDuration
	lr.Attempts = info.attempts
	lr.InjectedFaults = info.faults
	lr.BackoffWait = info.backoff
	lr.Wasted = info.wasted
	sj.rep.PerLambda = append(sj.rep.PerLambda, lr)
	if i < len(d.parts)-1 {
		if sj.lj != nil {
			sj.prevKey = sj.lj.outKeys[i]
		} else {
			sj.prevKey = string(res.Response)
		}
		if n, ok := d.cfg.Store.Head(sj.prevKey); ok {
			sj.prevBytes += n
		}
	}
	sj.next++
	return svc, nil
}

// Finish closes the staged job after its last stage: it decodes the
// prediction, builds the span tree at the scheduler's stage starts and
// publishes it to the tracer. completion is the job's end offset from
// its start (the last stage's end). The report's Cost is the meter-
// replay sum of the job's own charges, so serving-level cost splitting
// reconstructs it exactly.
func (sj *StagedJob) Finish(completion time.Duration) (*Report, error) {
	d := sj.d
	if sj.done {
		return sj.rep, fmt.Errorf("coordinator: staged job %s already finished", sj.job)
	}
	if sj.next != len(d.parts) {
		sj.fail()
		return sj.rep, fmt.Errorf("coordinator: staged job %s finished after %d of %d stages",
			sj.job, sj.next, len(d.parts))
	}
	if sj.lj == nil || sj.lj.enc == nil {
		out, err := modelfmt.DecodeTensor(sj.results[len(sj.results)-1].Response)
		if err != nil {
			sj.fail()
			return sj.rep, fmt.Errorf("coordinator: decoding prediction: %w", err)
		}
		sj.rep.Output = out
	}
	sj.rep.Completion = completion
	// Head sampling: a dropped job reports its meter-delta spend (exact
	// per job, though an unsampled tracer replay could associate the
	// same charges in a different order) and skips the tree build.
	// Hedge-won jobs are always sampled — except on the lean path,
	// which never builds trees; rep.HedgeWins is final here.
	if sj.lj != nil || (sj.opts.NoTrace && sj.rep.HedgeWins == 0) {
		sj.rep.Cost = sj.spend
		sj.close(nil)
		d.recordJobMetrics(sj.rep)
		return sj.rep, nil
	}
	root := d.buildTrace(sj.rep, sj.job, false, sj.upDur, sj.upInfo, sj.results, sj.infos, sj.partBuckets, sj.rootBucket, sj.starts)
	if sj.opts.Batch > 1 {
		root.SetAttr("batch", fmt.Sprintf("%d", sj.opts.Batch))
	}
	sj.rep.Trace = root
	if d.cfg.Tracer == nil {
		sj.rep.Cost = sj.spend
	} else {
		sj.rep.Cost = obs.SumCosts(root)
	}
	sj.close(root)
	d.recordJobMetrics(sj.rep)
	return sj.rep, nil
}

// fail finalizes a job that cannot continue: the failure trace collects
// every charge the job billed so cost attribution stays exact. Lean
// jobs build no failure trace; their per-stage meter deltas already
// carry the exact spend.
func (sj *StagedJob) fail() {
	d := sj.d
	if sj.lj != nil {
		sj.rep.Cost = sj.spend
		sj.rep.Elapsed = sj.st.elapsed
		d.jh.jobsFailed.Inc(1)
		sj.close(nil)
		return
	}
	root := d.failureTrace(sj.rep, sj.job, sj.st, sj.upInfo, sj.infos, sj.rootBucket)
	// Unlike Run — which bills storage holds only once the whole chain
	// succeeds — each staged stage charges its hold as it completes, so
	// the completed stages' buckets must ride on the failure trace too.
	for _, b := range sj.partBuckets {
		attachBucket(root, b)
		for _, e := range b.Events() {
			root.Cost += e.Amount
		}
	}
	sj.rep.Trace = root
	if d.cfg.Tracer == nil {
		root.Cost = sj.spend
	}
	sj.rep.Cost = root.Cost
	sj.close(root)
}

// close cleans up staged objects and publishes the tree in completion
// order. The job lock is taken and released back to back — staged jobs
// interleave on one goroutine, so holding it across stages would
// deadlock the scheduler.
func (sj *StagedJob) close(root *obs.Span) {
	if lj := sj.lj; lj != nil {
		// Re-sync the grown slice headers into the scratch so
		// ReleaseReport recycles exactly this job's results; no tracer
		// publication — lean jobs never built a tree.
		lj.results = sj.results
		lj.infos = sj.infos
		lj.starts = sj.starts
		lj.storedBefore = sj.storedBefore
		sj.d.cleanupLean(lj)
		sj.done = true
		return
	}
	sj.d.cleanup(sj.job)
	tr := sj.d.cfg.Tracer
	tr.BeginJob()
	tr.EndJob(root)
	sj.done = true
}
