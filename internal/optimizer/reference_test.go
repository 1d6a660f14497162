package optimizer

// This file retains the pre-overhaul planner implementation verbatim:
// serial table build, per-block perf.EndToEndTime +
// Quota.ExecutionCost, and a full per-block rescan (fresh objective
// slice or fresh BnB problem) on every λ step. Only its O(span)
// profiling went: spans are profiled by the span profiler, which perf's
// tests hold bit-identical to that walk. It is test-only — newReference
// routes all solves through it so the equivalence property tests can
// assert that the overhauled hot path (prefix-sum profiling, block-grid
// kernel, parallel build, lower-envelope selection, scratch reuse)
// produces byte-identical Plans. Keep any behavioral change here in
// lockstep with a matching change to the fast path, or the equivalence
// tests will say so.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/miqp"
	"ampsinf/internal/nn"
)

// refOptimizer is an Optimizer whose table holds the reference's dense
// per-block spans and whose Optimize, OptimizeCostOnly, DP and assembly
// are the retained originals. The config helpers (SpanFeasible,
// FeasibleMemories, SpanEstimate) are the embedded Optimizer's: they
// read the dense tables.
type refOptimizer struct{ *Optimizer }

// newReference builds an optimizer that solves everything through the
// retained reference (pre-overhaul) path. Tests compare its plans
// byte-for-byte against New's.
func newReference(req Request) (refOptimizer, error) {
	o, err := newOptimizer(req)
	if err != nil {
		return refOptimizer{}, err
	}
	o.buildTableRef()
	return refOptimizer{o}, nil
}

func (o *Optimizer) buildTableRef() {
	S := len(o.segs)
	o.table = make([][]spanChoice, S)
	for a := 0; a < S; a++ {
		o.table[a] = make([]spanChoice, S+1)
		for b := a + 1; b <= S; b++ {
			o.table[a][b] = o.solveSpanRef(a, b)
		}
	}
}

// solveSpanRef is the original solveSpan: dense per-block tables filled
// by a direct scan. It additionally records capsOK and lo, which the
// shared config helpers read; those do not influence the solve.
func (o *Optimizer) solveSpanRef(a, b int) spanChoice {
	prof := o.profiler.Profile(a, b)
	prof.WeightsBytes = int64(float64(prof.WeightsBytes) * o.req.WeightScale)
	sc := spanChoice{memIdx: -1}

	if cap := o.req.MaxLayersPerPartition; cap > 0 && prof.Layers > cap {
		return sc
	}
	p := o.req.Perf
	q := o.req.Quota
	deploy := prof.DeployBytes() + int64(p.DepsMB*(1<<20))
	if deploy > int64(q.DeployLimitMB)<<20 {
		return sc
	}
	if prof.TmpBytes() > int64(q.TmpLimitMB)<<20 {
		return sc
	}
	sc.capsOK = true

	minMem := p.MinFeasibleMemoryMB(prof.WeightsBytes, q.MinMemoryMB, q.MemoryStepMB)
	sc.lo = sort.SearchInts(o.blocks, minMem)

	L := len(o.blocks)
	sc.times = make([]time.Duration, L)
	sc.costs = make([]float64, L)
	sc.allow = make([]bool, L)

	transfer := transferTime(prof.InBytes) + transferTime(prof.OutBytes)
	for j, mem := range o.blocks {
		if mem < minMem {
			continue
		}
		t := p.EndToEndTime(mem, prof.FLOPs, prof.WeightsBytes) + transfer
		if t > q.Timeout {
			continue
		}
		cost := q.ExecutionCost(mem, t) +
			pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
		sc.allow[j] = true
		sc.times[j] = t
		sc.costs[j] = cost
	}

	sc.memIdx, _ = o.selectBlockRef(sc, 0)
	sc.feasible = sc.memIdx >= 0
	return sc
}

// selectBlockRef is the original selectBlock: a fresh objective slice
// and exact one-hot scan per call, or a freshly constructed BnB problem.
func (o *Optimizer) selectBlockRef(sc spanChoice, lambda float64) (int, float64) {
	if sc.allow == nil {
		return -1, math.Inf(1)
	}
	if !o.req.UseBnB {
		obj := make([]float64, len(sc.costs))
		for j := range obj {
			obj[j] = sc.costs[j] + lambda*sc.times[j].Seconds()
		}
		return miqp.SolveOneHot(nil, obj, sc.allow)
	}
	idx, q, pvec, ones := bnbProblemRef(sc, lambda)
	if len(idx) == 0 {
		return -1, math.Inf(1)
	}
	return solveOneHotQP(idx, q, pvec, ones)
}

// bnbProblemRef builds the explicit binary QP over sc's allowed blocks
// in freshly allocated slices: the blocks' indices, the diagonal Q, the
// linear term and the one-hot row.
func bnbProblemRef(sc spanChoice, lambda float64) (idx []int, q [][]float64, pvec, ones []float64) {
	for j, ok := range sc.allow {
		if ok {
			idx = append(idx, j)
		}
	}
	n := len(idx)
	q = make([][]float64, n)
	pvec = make([]float64, n)
	ones = make([]float64, n)
	for r, j := range idx {
		q[r] = make([]float64, n)
		execCost := sc.costs[j] - pricing.LambdaInvocation - pricing.S3GetRequest - pricing.S3PutRequest
		q[r][r] = execCost
		pvec[r] = lambda*sc.times[j].Seconds() +
			pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
		ones[r] = 1
	}
	return idx, q, pvec, ones
}

// solveForLambdaRef is the original solveForLambda: freshly allocated
// DP tables and a selectBlockRef rescan for every (span, λ) pair.
func (o *Optimizer) solveForLambdaRef(lambda float64) (dpResult, bool) {
	S := len(o.segs)
	K := o.req.MaxLambdas
	if K > S {
		K = S
	}
	const inf = math.MaxFloat64
	best := make([][]float64, S+1)
	prev := make([][]int, S+1)
	choice := make([][]int, S+1)
	for b := 0; b <= S; b++ {
		best[b] = make([]float64, K+1)
		prev[b] = make([]int, K+1)
		choice[b] = make([]int, K+1)
		for k := range best[b] {
			best[b][k] = inf
			prev[b][k] = -1
		}
	}
	best[0][0] = 0
	for b := 1; b <= S; b++ {
		for a := 0; a < b; a++ {
			sc := o.table[a][b]
			if !sc.feasible {
				continue
			}
			j, val := o.selectBlockRef(sc, lambda)
			if j < 0 {
				continue
			}
			for k := 1; k <= K; k++ {
				if best[a][k-1] == inf {
					continue
				}
				if cand := best[a][k-1] + val; cand < best[b][k] {
					best[b][k] = cand
					prev[b][k] = a
					choice[b][k] = j
				}
			}
		}
	}
	bestK, bestObj := -1, inf
	for k := 1; k <= K; k++ {
		if best[S][k] < bestObj {
			bestObj, bestK = best[S][k], k
		}
	}
	if bestK < 0 {
		return dpResult{}, false
	}
	bounds := make([]int, bestK+1)
	mems := make([]int, bestK)
	b, k := S, bestK
	for k > 0 {
		a := prev[b][k]
		bounds[k] = b
		mems[k-1] = choice[b][k]
		b, k = a, k-1
	}
	bounds[0] = 0
	return dpResult{objective: bestObj, bounds: bounds, memIdx: mems}, true
}

// Optimize is the original Optimize over solveForLambdaRef.
func (o refOptimizer) Optimize() (*Plan, error) {
	res, ok := o.solveForLambdaRef(0)
	if !ok {
		return nil, fmt.Errorf("optimizer: model %q has no feasible partitioning under the platform limits", o.req.Model.Name)
	}
	plan := o.assembleRef(res, 0)
	if o.req.SLO <= 0 || plan.EstTime <= o.req.SLO {
		plan.MeetsSLO = true
		return plan, nil
	}

	lo, hi := 0.0, 1e-6
	var feasiblePlan *Plan
	for iter := 0; iter < 60; iter++ {
		r, ok := o.solveForLambdaRef(hi)
		if !ok {
			break
		}
		p := o.assembleRef(r, hi)
		if p.EstTime <= o.req.SLO {
			feasiblePlan = p
			break
		}
		lo = hi
		hi *= 8
	}
	if feasiblePlan == nil {
		r, ok := o.solveForLambdaRef(hi)
		if !ok {
			r = res
		}
		p := o.assembleRef(r, hi)
		p.MeetsSLO = false
		return p, nil
	}
	for iter := 0; iter < 40; iter++ {
		mid := (lo + hi) / 2
		r, ok := o.solveForLambdaRef(mid)
		if !ok {
			break
		}
		p := o.assembleRef(r, mid)
		if p.EstTime <= o.req.SLO {
			hi = mid
			if p.EstCost < feasiblePlan.EstCost {
				feasiblePlan = p
			}
		} else {
			lo = mid
		}
	}
	feasiblePlan.MeetsSLO = true
	return feasiblePlan, nil
}

// OptimizeCostOnly is the original λ = 0 plan.
func (o refOptimizer) OptimizeCostOnly() (*Plan, error) {
	res, ok := o.solveForLambdaRef(0)
	if !ok {
		return nil, fmt.Errorf("optimizer: model %q has no feasible partitioning under the platform limits", o.req.Model.Name)
	}
	p := o.assembleRef(res, 0)
	p.MeetsSLO = o.req.SLO <= 0 || p.EstTime <= o.req.SLO
	return p, nil
}

// assembleRef is the original assemble: O(span) profiling and the dense
// tables' stored (time, cost).
func (o *Optimizer) assembleRef(res dpResult, lambda float64) *Plan {
	plan := &Plan{LagrangeMultiplier: lambda}
	var qBytes int64
	for i := 0; i+1 < len(res.bounds); i++ {
		a, b := res.bounds[i], res.bounds[i+1]
		sc := &o.table[a][b]
		j := res.memIdx[i]
		prof := o.profiler.Profile(a, b)
		lo, hi, _ := nn.SegmentRange(o.segs, a, b)
		t, base := sc.times[j], sc.costs[j]
		cost := base +
			float64(qBytes)/(1<<30)*t.Seconds()*pricing.S3StoragePerGBSecond
		plan.Lambdas = append(plan.Lambdas, LambdaPlan{
			LayerLo: lo, LayerHi: hi,
			MemoryMB: o.blocks[j], Profile: prof,
			EstTime: t, EstCost: cost,
		})
		plan.EstTime += t
		plan.EstCost += cost
		qBytes += prof.OutBytes
	}
	return plan
}
