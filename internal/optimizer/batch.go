package optimizer

import (
	"fmt"
	"math"
	"time"

	"ampsinf/internal/cloud/pricing"
)

// BatchOption is the evaluation of serving the planned partitioning with
// batched invocations of one fixed size: every request in the batch
// shares the partition chain's init and weight-load work, activations
// scale with the batch dimension, and compute follows the marginal
// batching model (perf.BatchFLOPs).
type BatchOption struct {
	// Batch is the invocation batch size this option evaluates.
	Batch int
	// EstTime is the end-to-end response time of one batched invocation
	// (every member of the batch completes at this instant).
	EstTime time.Duration
	// EstCost is the total invoice of one batched invocation across the
	// partition chain.
	EstCost float64
	// CostPerRequest is EstCost amortized over the batch members — the
	// quantity batching exists to minimize.
	CostPerRequest float64
	// MeetsSLO reports EstTime ≤ SLO (always true when the request set
	// no SLO).
	MeetsSLO bool
}

// BatchPlan is the batch-size co-plan for a partitioning plan.
type BatchPlan struct {
	// Options holds one entry per feasible batch size in ascending
	// order. Sizes that blow the memory block's temporary storage, the
	// platform timeout or the per-block working set are omitted.
	Options []BatchOption
	// Chosen is the recommended batch size: the cheapest per-request
	// option among those meeting the SLO (smaller size on exact ties),
	// falling back to the cheapest overall, then to 1.
	Chosen int
}

// Option returns the evaluation for batch size b, or nil if b was
// infeasible (or out of the evaluated range).
func (bp *BatchPlan) Option(b int) *BatchOption {
	for i := range bp.Options {
		if bp.Options[i].Batch == b {
			return &bp.Options[i]
		}
	}
	return nil
}

// CoPlanBatch co-plans the invocation batch size against the plan's
// memory blocks and the request's SLO (tentpole: the optimizer decides
// not just where to cut and how much memory to buy, but how many queued
// requests one invocation should carry). For each candidate size B it
// re-evaluates every partition at its already-chosen memory block —
// batched activations multiply the S3 transfers and the temporary
// storage footprint, compute grows by the marginal-batching model while
// init and weight load are shared — and keeps the sizes that still fit
// the block (Eq. 5's storage limit, the platform timeout, the working
// set floor). Chosen is the feasible size with the lowest per-request
// cost among SLO-compliant options. Batch size 1 reproduces the plan's
// own EstTime/EstCost, so a co-plan always has at least one option.
func (o *Optimizer) CoPlanBatch(plan *Plan, maxBatch int) (*BatchPlan, error) {
	if plan == nil || len(plan.Lambdas) == 0 {
		return nil, fmt.Errorf("optimizer: co-plan needs a non-empty plan")
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	p := o.req.Perf
	q := o.req.Quota
	bp := &BatchPlan{}
	for B := 1; B <= maxBatch; B++ {
		opt := BatchOption{Batch: B}
		feasible := true
		var qBytes int64 // Σ batched outputs of previous partitions in S3
		for _, l := range plan.Lambdas {
			prof := l.Profile
			prof.WeightsBytes = int64(float64(prof.WeightsBytes) * o.req.WeightScale)
			in := prof.InBytes * int64(B)
			out := prof.OutBytes * int64(B)
			peak := prof.PeakActBytes * int64(B)
			// The memory block was bought for batch 1; a larger batch
			// must still fit its working set and the temp-storage limit.
			if prof.WeightsBytes+in+peak > int64(q.TmpLimitMB)<<20 {
				feasible = false
				break
			}
			if p.MinFeasibleMemoryMB(prof.WeightsBytes+peak, q.MinMemoryMB, q.MemoryStepMB) > l.MemoryMB {
				feasible = false
				break
			}
			t := p.EndToEndTime(l.MemoryMB, p.BatchFLOPs(prof.FLOPs, B), prof.WeightsBytes) +
				transferTime(in) + transferTime(out)
			if t > q.Timeout {
				feasible = false
				break
			}
			cost := q.ExecutionCost(l.MemoryMB, t) +
				pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest +
				float64(qBytes)/(1<<30)*t.Seconds()*pricing.S3StoragePerGBSecond
			opt.EstTime += t
			opt.EstCost += cost
			qBytes += out
		}
		if !feasible {
			continue
		}
		opt.CostPerRequest = opt.EstCost / float64(B)
		opt.MeetsSLO = o.req.SLO <= 0 || opt.EstTime <= o.req.SLO
		bp.Options = append(bp.Options, opt)
	}
	bp.Chosen = chooseBatch(bp.Options)
	return bp, nil
}

// chooseBatch picks the cheapest per-request SLO-meeting option,
// preferring smaller batches on exact ties; if nothing meets the SLO it
// degrades to cheapest-overall, and to 1 with no options at all.
func chooseBatch(opts []BatchOption) int {
	chosen, best := 0, math.Inf(1)
	for _, opt := range opts {
		if opt.MeetsSLO && opt.CostPerRequest < best {
			chosen, best = opt.Batch, opt.CostPerRequest
		}
	}
	if chosen > 0 {
		return chosen
	}
	for _, opt := range opts {
		if opt.CostPerRequest < best {
			chosen, best = opt.Batch, opt.CostPerRequest
		}
	}
	if chosen > 0 {
		return chosen
	}
	return 1
}

// Clamp returns the largest feasible evaluated batch size not above b
// (1 when nothing larger fits): serving layers use it to keep a
// requested batch size inside the co-plan's memory-block and timeout
// feasibility.
func (bp *BatchPlan) Clamp(b int) int {
	best := 1
	for _, opt := range bp.Options {
		if opt.Batch <= b && opt.Batch > best {
			best = opt.Batch
		}
	}
	return best
}

// CoPlanBatch is the one-shot convenience mirroring Optimize: it builds
// the optimizer, computes the plan and co-plans the batch size in one
// call, returning both.
func CoPlanBatch(req Request, maxBatch int) (*Plan, *BatchPlan, error) {
	o, err := New(req)
	if err != nil {
		return nil, nil, err
	}
	plan, err := o.Optimize()
	if err != nil {
		return nil, nil, err
	}
	bp, err := o.CoPlanBatch(plan, maxBatch)
	if err != nil {
		return nil, nil, err
	}
	return plan, bp, nil
}
