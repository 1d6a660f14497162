package optimizer

import (
	"math"
	"sort"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/perf"
)

// blockGrid is the per-block kernel: it evaluates T_i (Eq. 2) and S_i
// (Eq. 3, without the position-dependent storage term) of one span over
// a run of memory blocks. perf.Params.EndToEndTime and
// pricing.Quota.ExecutionCost are the specification; the kernel performs
// the same float operations in the same association, so every (t, cost)
// is bit-identical to
//
//	t    = Perf.EndToEndTime(mem, flops, weights) + transfer
//	cost = Quota.ExecutionCost(mem, t) + invocation, GET and PUT fees
//
// (a property test compares them with ==). What it saves is work that
// does not depend on the span or does not change from block to block:
//
//   - float64(mem), Share(mem) and mem/1024.0 are tabulated once per
//     Optimizer;
//   - above the saturation point Share is exactly 1 and work/1.0 == work,
//     so the three divisions are skipped there;
//   - α·ws is a span constant (Penalty evaluates (α·ws)/mem);
//   - the billed quantum ⌈t/g⌉·g and its Seconds() are carried from
//     block to block and recomputed only when t leaves (billed−g, billed].
//     The test is two-sided, so it does not assume t is monotone in
//     memory.
//
// A blockGrid is immutable after newBlockGrid and shared by the table
// build's workers.
type blockGrid struct {
	perf  *perf.Params
	memF  []float64 // float64(blocks[j])
	share []float64 // Perf.Share(blocks[j])
	gb    []float64 // float64(blocks[j]) / 1024.0
	// sat is the first index whose share is 1 (len(blocks) if none).
	sat int

	gran time.Duration // billing granularity, defaulted as ExecutionCost does
}

func newBlockGrid(p *perf.Params, q *pricing.Quota, blocks []int) *blockGrid {
	g := &blockGrid{
		perf:  p,
		memF:  make([]float64, len(blocks)),
		share: make([]float64, len(blocks)),
		gb:    make([]float64, len(blocks)),
		sat:   sort.SearchInts(blocks, p.SaturationMB),
		gran:  q.BillingGranularity,
	}
	if g.gran <= 0 {
		g.gran = pricing.LambdaBillingGranularity
	}
	for j, mem := range blocks {
		g.memF[j] = float64(mem)
		g.share[j] = p.Share(mem)
		g.gb[j] = float64(mem) / 1024.0
	}
	return g
}

// spanWork holds the span invariants of the kernel: the pressure
// numerator α·ws, the full-share work seconds of the three scaled phases
// and every block-independent duration (platform start, invocation
// overhead, S3 transfers).
type spanWork struct {
	aws              float64
	deps, load, comp float64
	fixed            time.Duration
}

func (g *blockGrid) work(flops, weightsBytes int64, transfer time.Duration) spanWork {
	p := g.perf
	w := spanWork{
		deps:  p.DepsMB * p.DepsInitSecPerMB,
		load:  float64(weightsBytes) / (1 << 20) * p.WeightsLoadSecPerMB,
		comp:  float64(flops) / (p.PeakGFLOPS * 1e9),
		fixed: p.ColdStartBase + p.InvokeOverhead + transfer,
	}
	// Penalty is exactly 1 for an empty working set; 1 + 0/mem is too.
	if ws := p.WorkingSetMB(weightsBytes); ws > 0 {
		w.aws = p.MemPressureAlpha * ws
	}
	return w
}

// blockCost is S_i of a block of gb GB billed for billedSec seconds. The
// conversion rounds the product before the fees are added, so no
// platform may fuse it into the sum.
func blockCost(gb, billedSec float64) float64 {
	return float64(gb*billedSec*pricing.LambdaGBSecond) +
		pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
}

// eval writes the time and cost of blocks lo … lo+len(ts)−1 into ts and
// costs. It does not apply the timeout: callers compare ts against the
// quota's.
func (g *blockGrid) eval(w *spanWork, lo int, ts []time.Duration, costs []float64) {
	n := len(ts)
	costs = costs[:n]
	memF, share, gb := g.memF[lo:lo+n], g.share[lo:lo+n], g.gb[lo:lo+n]
	sat := g.sat - lo
	gran := g.gran
	billed, billedSec := time.Duration(-1), 0.0
	for i := range ts {
		pen := 1 + w.aws/memF[i]
		deps, load, comp := w.deps, w.load, w.comp
		if i < sat {
			s := share[i]
			deps, load, comp = deps/s, load/s, comp/s
		}
		t := w.fixed +
			time.Duration(deps*pen*float64(time.Second)) +
			time.Duration(load*pen*float64(time.Second)) +
			time.Duration(comp*pen*float64(time.Second))
		d := t
		if d < 0 {
			d = 0
		}
		if d > billed || d <= billed-gran {
			billed = (d + gran - 1) / gran * gran
			billedSec = billed.Seconds()
		}
		ts[i] = t
		costs[i] = blockCost(gb[i], billedSec)
	}
}

// floorMargin is the floor's relative slack: it covers the kernel's
// roundings, the floor's own and the tangent's error from a derivative
// that cancels, a few hundred units of roundoff in all (DESIGN.md §10).
const floorMargin = 1e-12

// floorModel is the closed form of a span's cost + λ·sec over a real
// memory size m: with x the fixed seconds less the kernel's three 1 ns
// truncations, W the full-share work seconds, a = α·ws and S =
// SaturationMB, y(m) = W·S·(1 + a/m)/m below S and W·(1 + a/m) from S up,
// and f(m) = (price·m/1024 + λ)·(x + y(m)) + fees, convex in m.
// (1 − floorMargin)·f(m) lies under every block's cost + λ·sec as the
// kernel and lineAt compute them.
type floorModel struct {
	x, w, a, s, lambda float64
}

// model returns the span's floor model at λ, or false when there is no
// floor: fixed seconds (less 3 ns) that are not positive, or an input
// that is negative or not finite.
func (g *blockGrid) model(w *spanWork, lambda float64) (floorModel, bool) {
	f := floorModel{
		x: (w.fixed - 3).Seconds(), w: w.deps + w.load + w.comp, a: w.aws,
		s: float64(g.perf.SaturationMB), lambda: lambda,
	}
	sum := f.x + f.w + f.a + f.lambda
	return f, f.x > 0 && min(f.w, f.a, f.lambda) >= 0 && !math.IsInf(sum, 0) && !math.IsNaN(sum)
}

// at returns f(m) and f′(m).
func (f *floorModel) at(m float64) (v, dv float64) {
	y, dy := f.w*(1+f.a/m), -f.w*f.a/(m*m)
	if m < f.s {
		// W·S·(1 + a/m)/m and its derivative −(W·S/m²)·(1 + 2a/m).
		r := f.s / m
		y, dy = y*r, -f.w*r/m*(1+2*f.a/m)
	}
	k := pricing.LambdaGBSecond / 1024
	return (k*m+f.lambda)*(f.x+y) + pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest,
		k*(f.x+y) + (k*m+f.lambda)*dy
}

// floorAt is the pointwise floor at a block of m MB.
func (f *floorModel) floorAt(m float64) float64 {
	v, _ := f.at(m)
	return v * (1 - floorMargin)
}

// lowest bounds f from below over [lo, hi] by bisection on f′, then by
// the tangent at the last midpoint m₀ — f(m) ≥ f(m₀) + f′(m₀)·(m − m₀)
// for convex f, whichever side of the minimiser m₀ fell — and returns
// the floor and m₀, the minimiser to bisection accuracy.
func (f *floorModel) lowest(lo, hi float64) (float64, float64) {
	if _, d := f.at(lo); d >= 0 {
		return f.floorAt(lo), lo
	}
	if _, d := f.at(hi); d <= 0 {
		return f.floorAt(hi), hi
	}
	l, h := lo, hi
	for range 40 {
		if _, d := f.at((l + h) / 2); d < 0 {
			l = (l + h) / 2
		} else {
			h = (l + h) / 2
		}
	}
	m0 := (l + h) / 2
	v, d := f.at(m0)
	return (v + min(d*(lo-m0), d*(hi-m0))) * (1 - floorMargin), m0
}
