package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/miqp"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

// A span stores the envelope of a window of its blocks and a certificate
// that no block outside it can be the scan's argmin (Optimizer.begin,
// Optimizer.reach). The
// equivalence suites check the outcome — plans and per-span answers
// against the retained scan. These tests check what the certificate
// rests on, and that the order multipliers were asked in leaves no trace
// in any answer.

// zooRequests is every zoo model on the 2020 grid and on the 2021 grid at
// stride 1. The models with more than 30 segments are skipped under
// -short and under the race detector.
func zooRequests(t *testing.T) []Request {
	t.Helper()
	var reqs []Request
	for _, name := range zoo.Names() {
		req := equivRequest(t, name, false, false)
		if (testing.Short() || raceEnabled) && len(req.Model.Segments()) > 30 {
			continue
		}
		reqs = append(reqs, req, stride1(req))
	}
	return reqs
}

func TestCertificateFloorsHold(t *testing.T) {
	// For every span that passes the caps, over every block from the
	// working-set floor up: time never rises with memory (what envPush's
	// strictly-decreasing-slope precondition, the window start and the
	// certificate memo assume); every block lies on or above its own
	// floor and every block from next up on or above the floor over the
	// rest of the grid, across a λ sweep; every allowed block below the
	// window start costs more than the λ = 0 optimum and is no faster
	// than its block; and once a span is certified at λ₁ it answers every
	// λ ≤ λ₁ as the full scan does, without extending its window.
	lambdas := []float64{0, 1e-9, 1e-7, 1e-6, 6.4e-5, 5.12e-4, 4.096e-3, 0.1, 1e3, 1e48}
	const lambda1 = 4.096e-3
	var spans, open, timedOut, below int
	for _, req := range zooRequests(t) {
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		L, S := len(o.blocks), len(o.segs)
		ts, costs, secs := make([]time.Duration, L), make([]float64, L), make([]float64, L)
		for a := 0; a < S; a++ {
			for b := a + 1; b <= S; b++ {
				sc := &o.table[a][b]
				if !sc.capsOK {
					continue
				}
				spans++
				tag := fmt.Sprintf("%s L=%d span [%d,%d)", req.Model.Name, L, a, b)
				lo := sort.SearchInts(o.blocks, sc.minMem)
				o.grid.eval(&sc.work, lo, ts[lo:], costs[lo:])
				for k := lo; k < L; k++ {
					secs[k] = ts[k].Seconds()
				}
				for k := lo + 1; k < L; k++ {
					if ts[k] > ts[k-1] {
						t.Fatalf("%s: time rises from %v at %d MB to %v at %d MB", tag, ts[k-1], o.blocks[k-1], ts[k], o.blocks[k])
					}
				}
				if !sc.feasible {
					timedOut++
					for k := lo; k < L; k++ {
						if ts[k] <= o.req.Quota.Timeout {
							t.Fatalf("%s: reported infeasible, but %d MB runs in %v", tag, o.blocks[k], ts[k])
						}
					}
					continue
				}
				if sc.next < L {
					open++
				}
				if sc.memIdx < sc.start || sc.next <= sc.memIdx || sc.start < lo {
					t.Fatalf("%s: the λ = 0 argmin %d is outside the window [%d, %d) over the floor %d", tag, sc.memIdx, sc.start, sc.next, lo)
				}
				for k := lo; k < sc.start; k++ {
					if ts[k] > o.req.Quota.Timeout {
						continue
					}
					below++
					if costs[k] <= sc.zeroObj || ts[k] < ts[sc.memIdx] {
						t.Fatalf("%s: block %d MB below the window start %d MB costs %v in %v; the λ = 0 optimum %v in %v",
							tag, o.blocks[k], o.blocks[sc.start], costs[k], ts[k], sc.zeroObj, ts[sc.memIdx])
					}
				}
				for i, lambda := range lambdas {
					f, ok := o.grid.model(&sc.work, lambda)
					if !ok {
						t.Fatalf("%s: no floor model at λ=%g", tag, lambda)
					}
					rest := math.Inf(-1)
					if sc.next < L {
						rest, _ = f.lowest(o.grid.memF[sc.next], o.grid.memF[L-1])
					}
					for k := lo; k < L; k++ {
						v := lineAt(costs[k], secs[k], lambda)
						// (Every block's own floor at every third multiplier:
						// the closed form's divisions are most of this test.)
						if i%3 == 0 {
							if own := f.floorAt(o.grid.memF[k]); v < own {
								t.Fatalf("%s λ=%g: block %d MB has value %v, under its own floor %v", tag, lambda, o.blocks[k], v, own)
							}
						}
						if k >= sc.next && v < rest {
							t.Fatalf("%s λ=%g: block %d MB has value %v, under the floor %v from the window end %d MB", tag, lambda, o.blocks[k], v, rest, o.blocks[sc.next])
						}
					}
				}
				o.selectBlock(sc, lambda1)
				if sc.cert < lambda1 {
					t.Fatalf("%s: answered λ=%g but certified only %g", tag, lambda1, sc.cert)
				}
				next := sc.next
				for _, lambda := range lambdas[1:] {
					if lambda > lambda1 {
						break
					}
					wj, wv := -1, math.Inf(1)
					for k := lo; k < L; k++ {
						if ts[k] > o.req.Quota.Timeout {
							continue
						}
						if v := lineAt(costs[k], secs[k], lambda); v < wv {
							wj, wv = k, v
						}
					}
					if gj, gv := o.selectBlock(sc, lambda); gj != wj || gv != wv || sc.next != next {
						t.Fatalf("%s: certified at λ=%g, λ=%g answers (%d, %v) with the window end moved %d → %d; scan (%d, %v)",
							tag, lambda1, lambda, gj, gv, next, sc.next, wj, wv)
					}
				}
			}
		}
	}
	// The 2021 grid at stride 1 must leave windows open and start some
	// above the working-set floor, or nothing above was about a
	// certificate or a window.
	if open == 0 || below == 0 {
		t.Fatalf("%d open windows, %d allowed blocks below a window start", open, below)
	}
	t.Logf("%d spans, %d with an open window, %d over the timeout at every block, %d allowed blocks below a window start", spans, open, timedOut, below)
}

type spanAnswer struct {
	j   int
	val float64
}

// askAll asks every feasible span of a fresh optimizer every multiplier,
// in the order given, and returns the answers keyed by span and by the
// multiplier's rank, so that two orders' answers compare key by key.
func askAll(t *testing.T, req Request, lambdas []float64) map[[3]int]spanAnswer {
	t.Helper()
	o, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), lambdas...)
	sort.Float64s(sorted)
	out := map[[3]int]spanAnswer{}
	for _, lambda := range lambdas {
		li := sort.SearchFloat64s(sorted, lambda)
		for a := range o.table {
			for b := a + 1; b < len(o.table[a]); b++ {
				if sc := &o.table[a][b]; sc.feasible {
					j, val := o.selectBlock(sc, lambda)
					out[[3]int{a, b, li}] = spanAnswer{j, val}
				}
			}
		}
	}
	return out
}

func TestQueryOrderIndependence(t *testing.T) {
	// Which multipliers a span has answered moves the end of its window
	// and nothing else: ascending, descending and shuffled sweeps over
	// fresh optimizers agree on every (index, value), and a plan does not
	// depend on what its optimizer was asked before.
	rng := rand.New(rand.NewSource(21))
	lambdas := []float64{0, 5e-324, 1e-9, 1e-7, 1e-6, 8e-6, 6.4e-5, 5.12e-4, 4.096e-3, 0.1, 5, 1e3, 1e48}
	for i := 0; i < 12; i++ {
		lambdas = append(lambdas, math.Exp(rng.Float64()*30-18))
	}
	for _, model := range []string{"tinycnn", "xception"} {
		req := stride1(equivRequest(t, model, false, false))
		asc := append([]float64(nil), lambdas...)
		sort.Float64s(asc)
		desc := append([]float64(nil), asc...)
		sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
		shuffled := append([]float64(nil), asc...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		want := askAll(t, req, asc)
		for name, order := range map[string][]float64{"descending": desc, "shuffled": shuffled} {
			got := askAll(t, req, order)
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d answers, ascending gave %d", model, name, len(got), len(want))
			}
			for key, w := range want {
				if g := got[key]; g != w {
					t.Fatalf("%s span [%d,%d) λ=%g: %s order answers (%d, %v), ascending (%d, %v)",
						model, key[0], key[1], asc[key[2]], name, g.j, g.val, w.j, w.val)
				}
			}
		}

		// Plans: a fresh optimizer, the same optimizer again, and
		// optimizers that first answered the sweep in either direction.
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		base, err := o.OptimizeCostOnly()
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.985, 0.4} {
			req.SLO = time.Duration(frac * float64(base.EstTime))
			fresh, err := New(req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Optimize()
			if err != nil {
				t.Fatal(err)
			}
			if again, err := fresh.Optimize(); err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("%s frac=%.3f: second Optimize on one optimizer differs (err %v)\nfirst:  %+v\nsecond: %+v", model, frac, err, want, again)
			}
			for name, order := range map[string][]float64{"ascending": asc, "descending": desc, "shuffled": shuffled} {
				asked, err := New(req)
				if err != nil {
					t.Fatal(err)
				}
				for _, lambda := range order {
					if _, ok := asked.solveForLambda(lambda); !ok {
						t.Fatalf("%s: no plan at λ=%g", model, lambda)
					}
				}
				if got, err := asked.Optimize(); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s frac=%.3f: plan after a %s sweep differs (err %v)\nfresh: %+v\nswept: %+v", model, frac, name, err, want, got)
				}
			}
		}
	}
}

// FuzzSelectBlockCertified drives one synthetic span on the 2021 grid at
// stride 1 through the planner's own path — begin, then selectBlock at
// two multipliers and at 0, so the second is asked of a window the first
// may have moved, or answered from its certificate — and compares every
// answer with a full kernel scan's lowest-index argmin. The span is its
// kernel inputs (work seconds of the three scaled phases, α·ws, the
// fixed duration), the index of its working-set floor and the timeout,
// folded into the ranges the planner admits: non-negative work and
// pressure (perf.Params.Validate), small enough not to overflow a
// Duration. A negative fixed duration, which Validate now keeps from the
// planner, stays in the domain: the floor has no model there and the
// chain must run as it would without one. The grid is rebuilt per input
// from the saturation point and the billing granularity, the inputs the
// floor model reads besides the span. The seed corpus is
// testdata/fuzz/FuzzSelectBlockCertified.
func FuzzSelectBlockCertified(f *testing.F) {
	req := stride1(Request{Perf: perf.Default()})
	blocks := req.Quota.SearchBlocks(req.SearchStrideMB)
	L := len(blocks)
	ts, costs, allow, obj := make([]time.Duration, L), make([]float64, L), make([]bool, L), make([]float64, L)
	fold := func(x, hi float64) float64 {
		if x = math.Abs(x); !(x <= hi) {
			return hi
		}
		return x
	}
	f.Fuzz(func(t *testing.T, deps, load, comp, aws float64, fixed int64, lo uint16, timeout int64, lambda, lambda2 float64, sat int32, gran int64) {
		quota := *req.Quota
		quota.Timeout = time.Duration(timeout)
		quota.BillingGranularity = time.Duration(gran % 1e9) // ≤ 0: ExecutionCost's default
		p := req.Perf
		p.SaturationMB = int(sat % 20481)
		grid := newBlockGrid(&p, &quota, blocks)
		o := &Optimizer{req: Request{Quota: &quota}, blocks: blocks, grid: grid, scr: make([]spanScratch, 1)}
		sc := spanChoice{memIdx: -1, zeroObj: math.Inf(1), capsOK: true}
		sc.work = spanWork{
			deps: fold(deps, 1e4), load: fold(load, 1e4), comp: fold(comp, 1e4), aws: fold(aws, 1e4),
			fixed: time.Duration(fixed % 1e13),
		}
		first := int(lo) % (L + 1) // L: the working set fits no block
		sc.minMem = blocks[L-1] + 1
		if first < L {
			sc.minMem = blocks[first]
		}
		o.begin(&sc, first, &o.scr[0])
		sc.feasible = sc.memIdx >= 0

		grid.eval(&sc.work, first, ts[first:], costs[first:])
		for k := range allow {
			allow[k] = k >= first && ts[k] <= quota.Timeout
		}
		for _, lambda := range []float64{fold(lambda, 1e60), fold(lambda2, 1e60), 0} {
			for k := first; k < L; k++ {
				obj[k] = costs[k] + lambda*ts[k].Seconds()
			}
			wj, wv := miqp.SolveOneHot(nil, obj, allow)
			if gj, gv := o.selectBlock(&sc, lambda); gj != wj || gv != wv {
				t.Fatalf("work %+v floor %d timeout %v saturation %d MB billing %v λ=%g: certified (%d, %v), scan (%d, %v); window [%d, %d) of %d, certified to λ=%g",
					sc.work, first, quota.Timeout, p.SaturationMB, grid.gran, lambda, gj, gv, wj, wv, sc.start, sc.next, L, sc.cert)
			}
		}
	})
}

func TestFloorModelProperty(t *testing.T) {
	// The floor against the kernel and the window against the scan on
	// random spans over random perf.Params: saturation below the smallest
	// block, above the largest and in between, no memory pressure, zero
	// work (a time plateau across the grid), fixed durations at and around
	// the floor's 3 ns and times up to ~10⁸ s, where the kernel's
	// roundings outgrow its truncations; billing at 1 ms, 100 ms and the
	// zero value. For every block and multiplier, cost + λ·sec lies on or
	// above the block's own floor, and from a random index up on or above
	// the floor over the rest; the planner's path answers every multiplier
	// as the scan does.
	rng := rand.New(rand.NewSource(33))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	q21 := pricing.Quota2021()
	blocks := q21.SearchBlocks(1)
	L := len(blocks)
	ts, costs, secs := make([]time.Duration, L), make([]float64, L), make([]float64, L)
	allow, obj := make([]bool, L), make([]float64, L)
	lambdas := []float64{1e-9, 1e-6, 6.4e-5, 4.096e-3, 1, 1e48}
	var checked, noModel int
	for trial := 0; trial < 48; trial++ {
		p := perf.Default()
		p.SaturationMB = []int{100, 128, 1792, 20000, 64 + rng.Intn(12000)}[trial%5]
		p.MemPressureAlpha = []float64{0, 0.341, rng.Float64()}[trial%3]
		quota := q21
		quota.BillingGranularity = []time.Duration{time.Millisecond, 100 * time.Millisecond, 0}[trial%3]
		quota.Timeout = time.Duration(1 << 62)
		grid := newBlockGrid(&p, &quota, blocks)
		w := spanWork{aws: p.MemPressureAlpha * logUniform(40, 2000)}
		switch trial % 4 {
		case 0: // zero work
		case 1: // ~10⁸ s at the smallest blocks: float ulps of many ns
			w.deps, w.load, w.comp = logUniform(1e4, 1e5), logUniform(1e4, 1e5), logUniform(1e4, 1e5)
		default:
			w.deps, w.load, w.comp = logUniform(1e-9, 10), logUniform(1e-9, 10), logUniform(1e-3, 100)
		}
		w.fixed = []time.Duration{-1e4 * time.Second, -time.Second, 0, 2, 3, 4, time.Duration(logUniform(1e6, 1e13))}[trial%7]
		if trial%7 == 6 {
			quota.Timeout = w.fixed + time.Duration(rng.Int63n(int64(1000*time.Second)))
		}
		tag := fmt.Sprintf("trial %d: saturation %d MB α %v billing %v work %+v", trial, p.SaturationMB, p.MemPressureAlpha, quota.BillingGranularity, w)
		grid.eval(&w, 0, ts, costs)
		for k := range ts {
			secs[k], allow[k] = ts[k].Seconds(), ts[k] <= quota.Timeout
		}
		for _, lambda := range lambdas {
			f, ok := grid.model(&w, lambda)
			if !ok {
				noModel++
				if w.fixed > 3 {
					t.Fatalf("%s: no floor model at λ=%g", tag, lambda)
				}
				continue
			}
			from := rng.Intn(L)
			rest, _ := f.lowest(grid.memF[from], grid.memF[L-1])
			for k := range ts {
				v := lineAt(costs[k], secs[k], lambda)
				if own := f.floorAt(grid.memF[k]); v < own {
					t.Fatalf("%s λ=%g: block %d MB has value %v, under its own floor %v", tag, lambda, blocks[k], v, own)
				}
				if k >= from && v < rest {
					t.Fatalf("%s λ=%g: block %d MB has value %v, under the floor %v from %d MB", tag, lambda, blocks[k], v, rest, blocks[from])
				}
				checked++
			}
		}
		o := &Optimizer{req: Request{Quota: &quota}, blocks: blocks, grid: grid, scr: make([]spanScratch, 1)}
		lo := rng.Intn(L / 4)
		sc := spanChoice{memIdx: -1, zeroObj: math.Inf(1), capsOK: true, feasible: true, work: w, minMem: blocks[lo]}
		o.begin(&sc, lo, &o.scr[0])
		for k := 0; k < lo; k++ {
			allow[k] = false
		}
		order := append([]float64{0}, lambdas...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, lambda := range order {
			for k := lo; k < L; k++ {
				obj[k] = lineAt(costs[k], secs[k], lambda)
			}
			wj, wv := miqp.SolveOneHot(nil, obj, allow)
			if gj, gv := o.selectBlock(&sc, lambda); gj != wj || gv != wv {
				t.Fatalf("%s λ=%g: window [%d, %d) answers (%d, %v), scan (%d, %v)", tag, lambda, sc.start, sc.next, gj, gv, wj, wv)
			}
		}
	}
	t.Logf("%d (block, λ) pairs above their floors; %d multipliers without a floor model", checked, noModel)
}

// chainBlocks is how many blocks an optimizer's span chains have
// evaluated: every window, plus the one block begin evaluates to place
// it.
func chainBlocks(o *Optimizer) int {
	n := 0
	for a := range o.table {
		for b := range o.table[a] {
			if sc := &o.table[a][b]; sc.capsOK {
				n += sc.next - sc.start + 1
			}
		}
	}
	return n
}

func TestChainBlockCounts(t *testing.T) {
	// The windows' gain in counts, not in time: mobilenet's 3,570 spans
	// over the 2021 grid at stride 1 (36.1 M blocks at or above their
	// working-set floors). Certified prefixes starting at the floor
	// evaluated 5,511,936 of them in New and 5,844,736 by the end of an
	// Optimize at 0.985 × the cost-optimal time. At 0.5 × no plan meets
	// the SLO, and Optimize learns that from the fastest plan, which reads
	// one block per span outside the windows: no chain moves (the λ
	// bisection ran every chain to its last block).
	req := stride1(request("mobilenet"))
	o, err := New(req)
	if err != nil {
		t.Fatal(err)
	}
	built := chainBlocks(o)
	base, err := o.OptimizeCostOnly()
	if err != nil {
		t.Fatal(err)
	}
	req.SLO = time.Duration(0.985 * float64(base.EstTime))
	o, err = New(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(); err != nil {
		t.Fatal(err)
	}
	solved := chainBlocks(o)
	t.Logf("New evaluates %d blocks, New + Optimize %d", built, solved)
	if built > 1_000_000 || solved > 2_000_000 {
		t.Fatalf("New evaluates %d blocks (budget 1.0 M), New + Optimize %d (budget 2.0 M)", built, solved)
	}

	req.SLO = base.EstTime / 2
	o, err = New(req)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	plan, err := o.Optimize()
	if err != nil || plan.MeetsSLO {
		t.Fatalf("plan %+v, err %v: want a plan that misses the SLO", plan, err)
	}
	elapsed := time.Since(start)
	if missed := chainBlocks(o); missed > built {
		t.Fatalf("an SLO no plan meets: chains evaluate %d blocks, %d in New", missed, built)
	}
	t.Logf("an SLO no plan meets: no chain moves; Optimize took %v", elapsed)
}

func TestCostOnlyObjectiveFallsWithFinerGrids(t *testing.T) {
	// Metamorphic: the exact λ = 0 DP objective must not rise from the
	// 2020 grid to the 2021 grid at stride 64 to the 2021 grid at stride
	// 1. Each grid is a superset of the one before, and 2021 bills in 1 ms
	// quanta where 2020 billed in 100 ms, so every span's cheapest block
	// costs no more and neither does any cut. The assembled plans add the
	// storage term q_i·T_i·H after the DP has chosen, so their EstCost
	// need not follow; where it does not, the test reports it.
	steps := 0
	for _, name := range zoo.Names() {
		req := equivRequest(t, name, false, false)
		if (testing.Short() || raceEnabled) && len(req.Model.Segments()) > 30 {
			continue
		}
		stride64 := stride1(req)
		stride64.SearchStrideMB = 64
		prevObj, prevCost, prevGrid := math.Inf(1), math.Inf(1), ""
		for _, g := range []struct {
			name string
			req  Request
		}{{"2020", req}, {"2021 stride 64", stride64}, {"2021 stride 1", stride1(req)}} {
			o, err := New(g.req)
			if err != nil {
				t.Fatal(err)
			}
			res, ok := o.solveForLambda(0)
			if !ok {
				if !math.IsInf(prevObj, 1) {
					t.Fatalf("%s: a plan on the %s grid, none on the %s grid", name, prevGrid, g.name)
				}
				continue
			}
			plan := o.assemble(res, 0).plan
			if res.objective > prevObj {
				t.Errorf("%s: the λ = 0 objective rises from %v on the %s grid to %v on the %s grid", name, prevObj, prevGrid, res.objective, g.name)
			}
			if plan.EstCost > prevCost {
				t.Logf("%s: EstCost with the storage term rises from %v on the %s grid to %v on the %s grid (DP objective %v → %v)",
					name, prevCost, prevGrid, plan.EstCost, g.name, prevObj, res.objective)
			}
			if !math.IsInf(prevObj, 1) {
				steps++
			}
			prevObj, prevCost, prevGrid = res.objective, plan.EstCost, g.name
		}
	}
	if steps == 0 {
		t.Fatal("no model has plans on two grids")
	}
	t.Logf("%d grid refinements compared", steps)
}
