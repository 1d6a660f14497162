// Package perf is the calibrated performance model of serverless
// inference: how a Lambda function's memory allocation translates into
// dependency-initialization, weight-loading and compute time. AWS Lambda
// allocates CPU share proportionally to memory, saturating around
// 1792 MB; small allocations additionally suffer memory pressure. The
// default parameters are calibrated against the paper's own MobileNet
// measurements (Table 2: 22.03 s @512 MB … 6.32 s @3008 MB), which makes
// the Fig 1 cost curve reproduce its published U shape with the cost
// minimum at 1024 MB.
package perf

import (
	"fmt"
	"math"
	"time"
)

// Params defines the performance model.
type Params struct {
	// PeakGFLOPS is the inference compute rate at full CPU share. The
	// paper served models through Python/Keras, whose effective rate is
	// far below hardware peak.
	PeakGFLOPS float64
	// DepsInitSecPerMB is full-share CPU work to unpack and import one MB
	// of framework dependencies (the 169 MB Keras/TensorFlow layer).
	DepsInitSecPerMB float64
	// WeightsLoadSecPerMB is full-share work to read and deserialize one
	// MB of model weights (HDF5 parsing).
	WeightsLoadSecPerMB float64
	// ColdStartBase is the platform's container/sandbox start latency.
	ColdStartBase time.Duration
	// InvokeOverhead is the fixed per-invocation runtime overhead (c0).
	InvokeOverhead time.Duration
	// MemPressureAlpha scales the slowdown from a working set that is
	// large relative to the allocation: penalty = 1 + α·ws/mem.
	MemPressureAlpha float64
	// SaturationMB is the allocation beyond which CPU share stops
	// growing (1 full vCPU ≈ 1792 MB on 2020 Lambda).
	SaturationMB int
	// DepsMB is the size of the framework dependency layer (D).
	DepsMB float64
	// HandlerMB is the size of the serving handler code (F).
	HandlerMB float64
	// RuntimeOverheadMB is baseline interpreter memory counted into the
	// working set for the pressure term.
	RuntimeOverheadMB float64
	// BatchMarginal is the marginal compute cost of each additional image
	// in a batch, relative to the first (vectorized frameworks amortize
	// per-layer overheads: a batch of n costs 1 + (n-1)·BatchMarginal).
	BatchMarginal float64
}

// Default returns the Table-2-calibrated parameters.
func Default() Params {
	return Params{
		PeakGFLOPS:          0.55,
		DepsInitSecPerMB:    0.01183, // 169 MB → ≈2.0 full-share seconds
		WeightsLoadSecPerMB: 0.080,
		ColdStartBase:       150 * time.Millisecond,
		InvokeOverhead:      580 * time.Millisecond,
		MemPressureAlpha:    0.341,
		SaturationMB:        1792,
		DepsMB:              169,
		HandlerMB:           1,
		RuntimeOverheadMB:   40,
		BatchMarginal:       0.25,
	}
}

// Validate rejects parameters the time model cannot evaluate: a compute
// rate that is not a positive finite number makes every compute time
// +Inf or NaN, whose conversion to a time.Duration is undefined; a
// negative start or invocation latency makes times negative; and a
// negative (or NaN) pressure coefficient, size or per-MB rate, without
// which time never rises with memory — what the planner's envelopes and
// their certificate are built on.
func (p Params) Validate() error {
	if !(p.PeakGFLOPS > 0) || math.IsInf(p.PeakGFLOPS, 1) {
		return fmt.Errorf("perf: PeakGFLOPS = %v, want a positive finite rate", p.PeakGFLOPS)
	}
	if p.ColdStartBase < 0 || p.InvokeOverhead < 0 {
		return fmt.Errorf("perf: ColdStartBase = %v, InvokeOverhead = %v, want non-negative latencies", p.ColdStartBase, p.InvokeOverhead)
	}
	if !(min(p.MemPressureAlpha, p.DepsMB, p.HandlerMB, p.RuntimeOverheadMB, p.DepsInitSecPerMB, p.WeightsLoadSecPerMB) >= 0) {
		return fmt.Errorf("perf: a negative or NaN pressure coefficient, size or per-MB rate in %+v", p)
	}
	return nil
}

// BatchFLOPs returns the effective compute of serving a batch of n
// images whose single-image compute is flops.
func (p Params) BatchFLOPs(flops int64, n int) int64 {
	if n <= 1 {
		return flops
	}
	marginal := p.BatchMarginal
	if marginal <= 0 {
		marginal = 1
	}
	return int64(float64(flops) * (1 + float64(n-1)*marginal))
}

// Share returns the CPU share granted to an allocation of memMB,
// in (0, 1], proportional below the saturation point.
func (p Params) Share(memMB int) float64 {
	if memMB <= 0 {
		return 1.0 / float64(p.SaturationMB)
	}
	if memMB >= p.SaturationMB {
		return 1
	}
	return float64(memMB) / float64(p.SaturationMB)
}

// Penalty returns the memory-pressure slowdown multiplier (≥1) for a
// working set of wsMB under an allocation of memMB.
func (p Params) Penalty(memMB int, wsMB float64) float64 {
	if memMB <= 0 || wsMB <= 0 {
		return 1
	}
	return 1 + p.MemPressureAlpha*wsMB/float64(memMB)
}

// scale converts full-share work seconds into wall seconds at memMB.
func (p Params) scale(workSec float64, memMB int, wsMB float64) time.Duration {
	wall := workSec / p.Share(memMB) * p.Penalty(memMB, wsMB)
	return time.Duration(wall * float64(time.Second))
}

// WorkingSetMB estimates the resident working set of a function serving
// weightsBytes of model parameters.
func (p Params) WorkingSetMB(weightsBytes int64) float64 {
	return p.DepsMB + p.HandlerMB + p.RuntimeOverheadMB + float64(weightsBytes)/(1<<20)
}

// DepsInitTime returns the cold-start dependency initialization time at
// memMB, for a function whose partition weighs weightsBytes.
func (p Params) DepsInitTime(memMB int, weightsBytes int64) time.Duration {
	return p.scale(p.DepsMB*p.DepsInitSecPerMB, memMB, p.WorkingSetMB(weightsBytes))
}

// WeightsLoadTime returns the model/weights deserialization time.
func (p Params) WeightsLoadTime(memMB int, weightsBytes int64) time.Duration {
	mb := float64(weightsBytes) / (1 << 20)
	return p.scale(mb*p.WeightsLoadSecPerMB, memMB, p.WorkingSetMB(weightsBytes))
}

// ComputeTime returns the forward-pass time for flops of work on a
// function holding weightsBytes of parameters.
func (p Params) ComputeTime(memMB int, flops int64, weightsBytes int64) time.Duration {
	work := float64(flops) / (p.PeakGFLOPS * 1e9)
	return p.scale(work, memMB, p.WorkingSetMB(weightsBytes))
}

// EndToEndTime composes the cold-start single-invocation serving time of
// a partition: platform start + overhead + dependency init + weight load
// + compute (network transfer time is added separately by the caller,
// which knows the staging store).
func (p Params) EndToEndTime(memMB int, flops, weightsBytes int64) time.Duration {
	return p.ColdStartBase + p.InvokeOverhead +
		p.DepsInitTime(memMB, weightsBytes) +
		p.WeightsLoadTime(memMB, weightsBytes) +
		p.ComputeTime(memMB, flops, weightsBytes)
}

// MinFeasibleMemoryMB implements the paper's constraint (7): the smallest
// memory block that can hold the runtime working set with headroom,
// given block base M and increment β. Smaller blocks are infeasible and
// pruned from the decision space.
func (p Params) MinFeasibleMemoryMB(weightsBytes int64, baseMB, stepMB int) int {
	need := p.WorkingSetMB(weightsBytes) * 1.10 // +10% heap headroom
	mb := baseMB
	for float64(mb) < need {
		mb += stepMB
	}
	return mb
}

// SegmentProfile carries the per-partition quantities the paper's
// formulation consumes for one candidate partition (a consecutive run of
// model segments deployed on one lambda).
type SegmentProfile struct {
	Layers       int   // y_i: number of NN layers in the partition
	FLOPs        int64 // Σ d·y: compute workload
	WeightsBytes int64 // partition weights (drives e_i)
	InBytes      int64 // p_{i-1}: input activation size
	OutBytes     int64 // p_i: output activation size
	PeakActBytes int64 // largest intermediate activation (drives z_i)
}

// PackageOverheadBytes is what a partition's deployment package
// carries beside its weights: a 256 KiB model-description allowance and
// the 1 MB handler. The planner's constraint (4) and the deployed
// function's package size both read it.
const PackageOverheadBytes = 256<<10 + 1<<20

// DeployBytes returns the unzipped deployment footprint of the partition:
// weights + description + handler (the paper's y·e + F; the dependency
// layer D is accounted separately since it ships as a function layer).
func (s SegmentProfile) DeployBytes() int64 {
	return s.WeightsBytes + PackageOverheadBytes
}

// TmpBytes returns the partition's temporary-storage footprint during
// execution (the paper's y·z + p_{i-1}): weights staged in /tmp, the
// input activation, and the largest intermediate.
func (s SegmentProfile) TmpBytes() int64 {
	return s.WeightsBytes + s.InBytes + s.PeakActBytes
}
