package optimizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/miqp"
	"ampsinf/internal/perf"
)

// specBlock is the specification of one block's (T_i, S_i): the public
// perf and pricing functions the kernel must reproduce bit for bit. The
// conversion pins the execution charge to a float64 before the fees are
// added, which is what a function result is on every platform that does
// not fuse across the call.
func specBlock(p *perf.Params, q *pricing.Quota, mem int, flops, weights int64, transfer time.Duration) (time.Duration, float64) {
	t := p.EndToEndTime(mem, flops, weights) + transfer
	cost := float64(q.ExecutionCost(mem, t)) +
		pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
	return t, cost
}

// gridCase is one block grid of the property test: a quota and the
// stride its blocks are searched at.
type gridCase struct {
	quota  pricing.Quota
	stride int
}

// kernelCases enumerates the (params, grid) combinations of the property
// test: the default calibration, no memory pressure, negative pressure
// (time then rises with memory above saturation, so the billed quantum
// is re-entered from below), saturation off the grid, below the smallest
// block and above the largest; billing at 1 ms, 100 ms and the zero
// value (which ExecutionCost defaults); the 2020 grid and the 2021 grid
// at its automatic 64 MB stride and at stride 1.
func kernelCases() (params []perf.Params, grids []gridCase) {
	mut := func(f func(*perf.Params)) perf.Params { p := perf.Default(); f(&p); return p }
	params = []perf.Params{
		perf.Default(),
		mut(func(p *perf.Params) { p.MemPressureAlpha = 0 }),
		mut(func(p *perf.Params) { p.MemPressureAlpha = -0.2 }),
		mut(func(p *perf.Params) { p.SaturationMB = 1000 }),
		mut(func(p *perf.Params) { p.SaturationMB = 100 }),
		mut(func(p *perf.Params) { p.SaturationMB = 20000; p.PeakGFLOPS = 1.25 }),
	}
	for _, g := range []time.Duration{time.Millisecond, 100 * time.Millisecond, 0} {
		q20, q21 := pricing.Quota2020(), pricing.Quota2021()
		q20.BillingGranularity, q21.BillingGranularity = g, g
		grids = append(grids, gridCase{q20, 64}, gridCase{q21, 64}, gridCase{q21, 1})
	}
	return
}

// kernelStats counts what the property test's inputs exercised.
type kernelStats struct{ blocks, overTimeout, quantumSteps, mutantDiffs int }

func TestGridKernelMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	spans := 10
	if testing.Short() {
		spans = 3
	}
	params, grids := kernelCases()
	var st kernelStats
	for pi := range params {
		for gi := range grids {
			t.Run(fmt.Sprintf("params%d/grid%d", pi, gi), func(t *testing.T) {
				checkKernel(t, rng, &params[pi], &grids[gi].quota, grids[gi].stride, spans, &st)
			})
		}
	}
	// The inputs must exercise what the kernel shortcuts: blocks on both
	// sides of the timeout, changes of the billed quantum, and enough
	// float variety that the classic wrong hoist — work·(1/share) for
	// work/share — shows up.
	if st.overTimeout == 0 || st.overTimeout == st.blocks {
		t.Fatalf("%d of %d blocks over the timeout: the inputs do not straddle it", st.overTimeout, st.blocks)
	}
	if st.quantumSteps == 0 {
		t.Fatal("no billed-quantum change among the checked blocks")
	}
	if st.mutantDiffs == 0 {
		t.Fatal("a work*(1/share) mutant is indistinguishable from the specification on these inputs")
	}
	t.Logf("%+v", st)
}

// checkKernel compares the kernel with the specification on every block
// of random spans over one (params, quota, stride) grid.
func checkKernel(t *testing.T, rng *rand.Rand, p *perf.Params, q *pricing.Quota, stride, spans int, st *kernelStats) {
	blocks := q.SearchBlocks(stride)
	g := newBlockGrid(p, q, blocks)
	ts := make([]time.Duration, len(blocks))
	costs := make([]float64, len(blocks))
	for s := 0; s < spans; s++ {
		flops := rng.Int63n(22_000_000_000)
		weights := rng.Int63n(300 << 20)
		switch s {
		case 0: // empty span profile
			flops, weights = 0, 0
		case 1: // slow enough to straddle the 900 s timeout on the grid
			flops = 100_000_000_000 + rng.Int63n(1_000_000_000)
		}
		transfer := time.Duration(50_000_000 + rng.Int63n(2_000_000_000))
		w := g.work(flops, weights, transfer)
		lo := rng.Intn(len(blocks)/4 + 1)
		g.eval(&w, lo, ts[lo:], costs[lo:])
		var prevBilled time.Duration
		for j := lo; j < len(blocks); j++ {
			wantT, wantC := specBlock(p, q, blocks[j], flops, weights, transfer)
			if ts[j] != wantT || costs[j] != wantC {
				t.Fatalf("span %d (flops %d weights %d transfer %v) block %d MB: kernel (%v, %v) != spec (%v, %v)",
					s, flops, weights, transfer, blocks[j], ts[j], costs[j], wantT, wantC)
			}
			st.blocks++
			if wantT > q.Timeout {
				st.overTimeout++
			}
			billed := (wantT + g.gran - 1) / g.gran
			if j > lo && billed != prevBilled {
				st.quantumSteps++
			}
			prevBilled = billed
			if mutantTime(p, blocks[j], flops, weights)+transfer != wantT {
				st.mutantDiffs++
			}
		}
		// The single-block form blockTimeCost uses must agree with the
		// run: no state leaks in from a previous block.
		for k := 0; k < 8; k++ {
			j := lo + rng.Intn(len(blocks)-lo)
			var t1 [1]time.Duration
			var c1 [1]float64
			g.eval(&w, j, t1[:], c1[:])
			if t1[0] != ts[j] || c1[0] != costs[j] {
				t.Fatalf("single-block eval at %d MB: (%v, %v) != run (%v, %v)", blocks[j], t1[0], c1[0], ts[j], costs[j])
			}
		}
	}
}

// mutantTime is EndToEndTime with the division by the CPU share replaced
// by a multiplication with its reciprocal — one rounding more, so a
// different float on some inputs. The property test requires its inputs
// to tell the two apart.
func mutantTime(p *perf.Params, mem int, flops, weights int64) time.Duration {
	ws := p.WorkingSetMB(weights)
	inv := 1 / p.Share(mem)
	scale := func(work float64) time.Duration {
		return time.Duration(work * inv * p.Penalty(mem, ws) * float64(time.Second))
	}
	return p.ColdStartBase + p.InvokeOverhead +
		scale(p.DepsMB*p.DepsInitSecPerMB) +
		scale(float64(weights)/(1<<20)*p.WeightsLoadSecPerMB) +
		scale(float64(flops)/(p.PeakGFLOPS*1e9))
}

func TestSpanTableIdenticalAcrossGOMAXPROCS(t *testing.T) {
	// One worker and the fan-out must store the same cells — in the
	// table build, and in the passes that extend envelope prefixes while
	// Optimize walks a binding SLO's hull: how far each span was extended
	// must not depend on the worker count either.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	extended := 0
	for _, req := range []Request{stride1(request("tinycnn")), stride1(request("xception")), equivRequest(t, "vgg16", false, false), equivRequest(t, "tinycnn", false, true)} {
		// (vgg16 has no plan on the 2020 quota and BnB mode has no
		// prefixes: only their builds are compared.)
		base, planErr := Optimize(req)
		if planErr == nil {
			req.SLO = time.Duration(0.8 * float64(base.EstTime))
		}
		var built, solved [][]spanChoice
		var first *Plan
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			o, err := New(req)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s (bnb=%v, %d blocks) under GOMAXPROCS=%d", req.Model.Name, req.UseBnB, len(o.blocks), procs)
			if built == nil {
				built = tableCopy(o.table)
			} else if !reflect.DeepEqual(o.table, built) {
				t.Fatalf("%s: span table differs from GOMAXPROCS=1", tag)
			}
			if planErr != nil || req.UseBnB {
				continue
			}
			plan, err := o.Optimize()
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first, solved = plan, o.table
				if !reflect.DeepEqual(solved, built) {
					extended++
				}
				continue
			}
			if !reflect.DeepEqual(plan, first) {
				t.Fatalf("%s: plan differs from GOMAXPROCS=1", tag)
			}
			if !reflect.DeepEqual(o.table, solved) {
				t.Fatalf("%s: span table after Optimize differs from GOMAXPROCS=1", tag)
			}
		}
	}
	if extended == 0 {
		t.Fatal("no Optimize extended a prefix: the second comparison compared nothing new")
	}
}

// tableCopy copies the span table's cells (their slices are never
// written in place: an extended envelope is a new slice).
func tableCopy(table [][]spanChoice) [][]spanChoice {
	out := make([][]spanChoice, len(table))
	for a := range table {
		out[a] = append([]spanChoice(nil), table[a]...)
	}
	return out
}

func TestNewAllocationBudget(t *testing.T) {
	// New records every span and solves none, so it allocates little
	// more than it retains, the table's cells (2.0 MB on mobilenet at
	// stride 1), and no envelope. Envelopes are built in per-worker
	// scratch and stored at their exact size when a DP solves a span:
	// append-grown envelopes allocated 3.3× what they kept, and when New
	// solved every span it retained 2.4 MB (213 MB before windows).
	req := stride1(request("mobilenet"))
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	o, err := New(req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&live)
	retained := live.HeapAlloc - before.HeapAlloc
	var envelopes uint64
	feasible := 0
	for a := range o.table {
		for b := range o.table[a] {
			sc := &o.table[a][b]
			if sc.feasible {
				feasible++
			}
			envelopes += uint64(cap(sc.env)) * uint64(unsafe.Sizeof(envPoint{}))
		}
	}
	runtime.KeepAlive(o)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("New allocated %.1f MB in %d objects and retains %.1f MB, %.1f MB of it envelopes of %d feasible spans",
		float64(bytes)/(1<<20), mallocs, float64(retained)/(1<<20), float64(envelopes)/(1<<20), feasible)
	if float64(bytes) > 1.15*float64(retained) {
		t.Errorf("New allocated %d B, more than 1.15 × the %d B it retains", bytes, retained)
	}
	if mallocs > 2*uint64(feasible) {
		t.Errorf("New made %d allocations for %d feasible spans (budget 2 per span)", mallocs, feasible)
	}
	if retained > 4<<20 {
		t.Errorf("New retains %d B, over the 4 MB cap", retained)
	}
}

func TestBnBCostOnlyReusesBuildSolves(t *testing.T) {
	// OptimizeCostOnly makes 4 allocations and every miqp.Solve 7, so a
	// λ = 0 plan that re-solved its spans could not stay inside this budget.
	req := request("tinycnn")
	req.UseBnB = true
	o, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := o.OptimizeCostOnly(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("OptimizeCostOnly after New allocates %.0f objects in BnB mode, want ≤ 16", allocs)
	}
}

// The λ = 0 BnB solves are one-hot QPs over a diagonal of non-negative
// execution costs: already convex (Gershgorin settles μ = 0) and closed
// by row propagation in at most 2n − 1 nodes each. tinycnn's cost-only
// plan solves its one live span; New solved all 45, in 3,915 nodes,
// where relaxation bounds alone visited 56,203.
func TestBnBBuildSolveNodes(t *testing.T) {
	req := request("tinycnn")
	req.UseBnB = true
	o, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.OptimizeCostOnly(); err != nil {
		t.Fatal(err)
	}
	solves, nodes := 0, 0
	for _, row := range o.table {
		for _, sc := range row {
			idx, q, pvec, ones := bnbProblemRef(sc, 0)
			if len(idx) == 0 {
				continue
			}
			pr := &miqp.Problem{
				N: len(idx), Q: q, P: pvec,
				Eq: []miqp.LinConstraint{{A: ones, B: 1}},
			}
			if _, mu := miqp.Convexify(pr); mu != 0 {
				t.Errorf("%d blocks: QCR shift %v on a diagonal of execution costs", len(idx), mu)
			}
			sol, err := miqp.Solve(pr, miqp.Options{})
			if err != nil || sol.Status != miqp.Optimal {
				t.Fatalf("span solve: %v, %+v", err, sol)
			}
			if sol.Nodes > 2*len(idx) {
				t.Errorf("%d blocks took %d nodes, want ≤ %d", len(idx), sol.Nodes, 2*len(idx))
			}
			solves++
			nodes += sol.Nodes
		}
	}
	t.Logf("%d solves, %d nodes", solves, nodes)
	if solves != 1 || solves != o.spansSolved || nodes > 100 {
		t.Fatalf("%d solves (%d spans solved) took %d nodes, want 1 solve in ≤ 100", solves, o.spansSolved, nodes)
	}
}
