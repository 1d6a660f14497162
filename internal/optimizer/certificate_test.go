package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ampsinf/internal/miqp"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

// A span stores the envelope of a prefix of its blocks and a certificate
// that no later block can be the scan's argmin (Optimizer.reach). The
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
	// strictly-decreasing-slope precondition and the timeout shortcut
	// assume), and no block at or above the prefix's end is cheaper than
	// the cost floor there or faster than the last block.
	var spans, open, timedOut int
	for _, req := range zooRequests(t) {
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		L, S := len(o.blocks), len(o.segs)
		ts, costs := make([]time.Duration, L), make([]float64, L)
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
				for k := lo + 1; k < L; k++ {
					if ts[k] > ts[k-1] {
						t.Fatalf("%s: time rises from %v at %d MB to %v at %d MB", tag, ts[k-1], o.blocks[k-1], ts[k], o.blocks[k])
					}
				}
				if !sc.feasible {
					// The build looked at the last block only.
					timedOut++
					for k := lo; k < L; k++ {
						if ts[k] <= req.Quota.Timeout {
							t.Fatalf("%s: reported infeasible, but %d MB runs in %v", tag, o.blocks[k], ts[k])
						}
					}
					continue
				}
				if sc.next < L {
					open++
				}
				if sc.next <= sc.memIdx {
					t.Fatalf("%s: the λ = 0 argmin %d is outside the prefix [%d, %d)", tag, sc.memIdx, lo, sc.next)
				}
				for k := sc.next; k < L; k++ {
					if floor := blockCost(o.grid.gb[sc.next], sc.bsL); costs[k] < floor {
						t.Fatalf("%s: block %d MB costs %v, under the floor %v of the prefix end %d MB", tag, o.blocks[k], costs[k], floor, o.blocks[sc.next])
					}
					if own := blockCost(o.grid.gb[k], sc.bsL); costs[k] < own {
						t.Fatalf("%s: block %d MB costs %v, under its own floor %v", tag, o.blocks[k], costs[k], own)
					}
					if sec := ts[k].Seconds(); sec < sc.secL {
						t.Fatalf("%s: block %d MB takes %v s, under the last block's %v s", tag, o.blocks[k], sec, sc.secL)
					}
					if costs[k] < sc.zeroObj {
						t.Fatalf("%s: block %d MB past the prefix costs %v, under the λ = 0 optimum %v", tag, o.blocks[k], costs[k], sc.zeroObj)
					}
				}
			}
		}
	}
	// The 2021 grid at stride 1 must leave prefixes open, or nothing
	// above was about a certificate.
	if open == 0 {
		t.Fatal("no span's prefix stopped short of the grid")
	}
	t.Logf("%d spans, %d with an open prefix, %d over the timeout at every block", spans, open, timedOut)
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
	// Which multipliers a span has answered moves the end of its prefix
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
// two multipliers and at 0, so the second is asked of a prefix the first
// may have moved — and compares every answer with a full kernel scan's
// lowest-index argmin. The span is its kernel inputs (work seconds of the
// three scaled phases, α·ws, the fixed duration), the index of its
// working-set floor and the timeout, folded into the ranges the planner
// admits: non-negative work and pressure (perf.Params.Validate), small
// enough not to overflow a Duration. The seed corpus is
// testdata/fuzz/FuzzSelectBlockCertified.
func FuzzSelectBlockCertified(f *testing.F) {
	req := stride1(Request{Perf: perf.Default()})
	blocks := req.Quota.SearchBlocks(req.SearchStrideMB)
	L := len(blocks)
	grid := newBlockGrid(&req.Perf, req.Quota, blocks)
	ts, costs, allow, obj := make([]time.Duration, L), make([]float64, L), make([]bool, L), make([]float64, L)
	fold := func(x, hi float64) float64 {
		if x = math.Abs(x); !(x <= hi) {
			return hi
		}
		return x
	}
	f.Fuzz(func(t *testing.T, deps, load, comp, aws float64, fixed int64, lo uint16, timeout int64, lambda, lambda2 float64) {
		quota := *req.Quota
		quota.Timeout = time.Duration(timeout)
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
				t.Fatalf("work %+v floor %d timeout %v λ=%g: certified (%d, %v), scan (%d, %v); prefix ends at %d of %d",
					sc.work, first, quota.Timeout, lambda, gj, gv, wj, wv, sc.next, L)
			}
		}
	})
}
