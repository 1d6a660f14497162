package coordinator

import (
	"fmt"
	"time"

	"ampsinf/internal/tensor"
)

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
// Both drivers take the same step per partition, settling its turn as
// it ends, and price a job the same way: each call — BeginStaged, every
// RunStage, Finish — holds the tracer's job lock and brackets its own
// meter delta, as Run's one call does, and the job's Cost sums them.
// Calls of other jobs run in between a staged job's.
type StagedJob job

// BeginStaged opens a staged job: it assigns the job id and uploads the
// input (retrying transient store faults) at the current platform
// instant. On error the returned job is already finalized — its Report
// carries the failure trace with the exact charges the upload billed.
// opts.Sequential does not apply: the caller schedules the stages.
func (d *Deployment) BeginStaged(input *tensor.Tensor, opts RunOptions) (*StagedJob, error) {
	j, err := d.begin(input, scheduleStaged, opts)
	j.leave()
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
	if j.done {
		return 0, fmt.Errorf("coordinator: staged job %s already finished", j.id)
	}
	if j.next >= len(j.d.parts) {
		return 0, fmt.Errorf("coordinator: staged job %s has no stage %d", j.id, j.next)
	}
	i := j.next
	// The stage's start offset is the job's committed serial time: queue
	// waits behind earlier pipeline stages count against the deadline.
	j.elapsed = start
	j.enter()
	defer j.leave()
	info, err := j.step(start)
	if err != nil {
		j.fail()
		return info.delay(), err
	}
	return j.turns[i].exit - start, nil
}

// Finish closes the staged job after its last stage: it decodes the
// prediction, builds the span tree at the scheduler's stage starts and
// publishes it to the tracer. The job completes when its last stage
// ends.
func (sj *StagedJob) Finish() (*Report, error) {
	j := (*job)(sj)
	if j.done {
		return &j.rep, fmt.Errorf("coordinator: staged job %s already finished", j.id)
	}
	j.enter()
	defer j.leave()
	if n := len(j.d.parts); j.next != n {
		j.fail()
		return &j.rep, fmt.Errorf("coordinator: staged job %s finished after %d of %d stages", j.id, j.next, n)
	}
	return &j.rep, j.finish()
}
