package coordinator

import (
	"fmt"
	"time"

	"ampsinf/internal/tensor"
)

// StagedOptions configures one staged job.
type StagedOptions struct {
	// Deadline is the job's completion budget from its start (0 = none;
	// negative is rejected). Stage starts count against it, so a request
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
	// Lean runs the job on a pooled job record, mirroring
	// RunOptions.Lean: no span trees ever, Cost from the job's exact
	// per-stage meter deltas, and the caller must hand the Report back
	// via ReleaseReport once done. Implies NoTrace.
	Lean bool
}

// StagedJob is the job record as an external scheduler holds it: one
// inference job executed stage by stage — the execution mode behind
// internal/serving's pipelined scheduler, where partition i of request n
// overlaps with partition i+1 of request n−1. The scheduler owns the
// schedule: it advances the platform clock to each stage's true start
// and calls RunStage with the stage's offset from the job start, so
// warm/cold decisions, in-flight accounting and container occupancy all
// see the real pipeline timeline. The job records the same retry,
// billing and trace material Run does; Finish assembles a span tree
// whose invoke spans sit at the scheduler's stage starts and whose cost
// events reproduce the job's exact charges.
//
// Where it differs from Run is when charges land: each stage bills its
// storage hold as it completes (Run bills holds only once the whole
// chain succeeded), and the job's cost is the sum of its own calls'
// meter deltas, because calls of other jobs run in between.
type StagedJob job

// BeginStaged opens a staged job: it assigns the job id and uploads the
// input (retrying transient store faults) at the current platform
// instant. On error the returned job is already finalized — its Report
// carries the failure trace with the exact charges the upload billed.
func (d *Deployment) BeginStaged(input *tensor.Tensor, opts StagedOptions) (*StagedJob, error) {
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	j, err := d.begin(input, "pipelined", opts)
	return (*StagedJob)(j), err
}

// Rep returns the job's report. After a failed Begin/RunStage/Finish it
// holds the failure trace and the exact charges the job billed before
// giving up.
func (sj *StagedJob) Rep() *Report { return &sj.rep }

// InputReady is the offset from the job's start at which the uploaded
// input is available in the store — the earliest stage-0 start.
func (sj *StagedJob) InputReady() time.Duration { return sj.upDur }

// RunStage invokes the job's next partition. start is the stage's
// offset from the job start on the scheduler's clock; the caller must
// have advanced the platform clock to the matching absolute instant
// first, so the invocation's warm/cold and throttle decisions see the
// true schedule. Returns the stage's service time — retry delays, the
// dispatch latency and the successful attempt's execution. On error the
// job is finalized with a failure trace; the returned duration is the
// time the failed stage burned.
func (sj *StagedJob) RunStage(start time.Duration) (time.Duration, error) {
	j := (*job)(sj)
	d := j.d
	if j.done {
		return 0, fmt.Errorf("coordinator: staged job %s already finished", j.id)
	}
	if j.next >= len(d.parts) {
		return 0, fmt.Errorf("coordinator: staged job %s has no stage %d", j.id, j.next)
	}
	i := j.next
	j.starts = append(j.starts, start)
	// The stage's start offset is the job's committed serial time: queue
	// waits behind earlier pipeline stages count against the deadline.
	j.elapsed = start
	j.before = d.meterTotal()
	res, info, err := j.invoke()
	if err != nil {
		j.spend += d.meterTotal() - j.before
		j.elapsed = start + info.delay()
		j.fail()
		return info.delay(), err
	}
	svc := info.delay() + invokeDispatchLatency + res.Duration
	j.elapsed = start + svc
	// The container's true busy window ends when its turn in the staged
	// schedule does (the platform settled it at stage start + handler
	// duration, without the retry delays).
	d.cfg.Platform.OccupyUntil(d.parts[i].fnName, res.ContainerID, d.cfg.Platform.Now()+svc)
	j.settlePart(i, phaseSplit(res), res.Duration, res.BilledDuration)
	j.spend += d.meterTotal() - j.before
	return svc, nil
}

// Finish closes the staged job after its last stage: it decodes the
// prediction, builds the span tree at the scheduler's stage starts and
// publishes it to the tracer. completion is the job's end offset from
// its start (the last stage's end).
func (sj *StagedJob) Finish(completion time.Duration) (*Report, error) {
	j := (*job)(sj)
	if j.done {
		return &j.rep, fmt.Errorf("coordinator: staged job %s already finished", j.id)
	}
	if n := len(j.d.parts); j.next != n {
		j.fail()
		return &j.rep, fmt.Errorf("coordinator: staged job %s finished after %d of %d stages", j.id, j.next, n)
	}
	if err := j.decodeOutput(); err != nil {
		return &j.rep, err
	}
	j.rep.Completion = completion
	j.complete()
	return &j.rep, nil
}
