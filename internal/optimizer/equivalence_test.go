package optimizer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

// The hot-path overhaul (prefix-sum profiling, block-grid kernel,
// parallel table build, lower-envelope block selection, scratch reuse)
// claims byte-identical plans, not approximately equal ones. These tests
// drive the fast path against the retained reference implementation
// across models, quotas, SLO tightness and solver modes, demanding
// reflect.DeepEqual — any float that drifts by one ulp fails. The fields
// the reference's λ bisection cannot reproduce are left out: the hull
// walk reports the multiplier of its final edge, which checkMultiplier
// holds to its definition, and the gap its edge certifies.

func equivRequest(t *testing.T, model string, quota2021 bool, useBnB bool) Request {
	t.Helper()
	m, err := zoo.Build(model, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Model: m, Perf: perf.Default(), UseBnB: useBnB}
	if quota2021 {
		q := pricing.Quota2021()
		req.Quota = &q
	}
	return req
}

func comparePlans(t *testing.T, base Request, fractions []float64, tag string) {
	t.Helper()
	ref, err := newReference(base)
	if err != nil {
		t.Fatal(err)
	}
	costOnly, refErr := ref.OptimizeCostOnly()
	if refErr != nil {
		// Both paths must agree that the model has no feasible plan.
		fastO, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		if _, fastErr := fastO.OptimizeCostOnly(); fastErr == nil {
			t.Fatalf("%s: reference infeasible (%v) but fast path found a plan", tag, refErr)
		}
		return
	}
	for _, frac := range fractions {
		req := base
		req.SLO = time.Duration(float64(costOnly.EstTime) * frac)
		fastO, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		refO, err := newReference(req)
		if err != nil {
			t.Fatal(err)
		}
		fast, err1 := fastO.Optimize()
		slow, err2 := refO.Optimize()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s frac=%.2f: errors diverge: %v vs %v", tag, frac, err1, err2)
		}
		if err1 != nil {
			continue
		}
		f, s := *fast, *slow
		f.LagrangeMultiplier, f.Gap, s.LagrangeMultiplier = 0, 0, 0
		if !reflect.DeepEqual(f, s) {
			t.Errorf("%s frac=%.2f: plans differ\nfast: %+v\nref:  %+v", tag, frac, fast, slow)
		}
		checkMultiplier(t, fastO, fast, fmt.Sprintf("%s frac=%.2f", tag, frac))
	}
}

// checkMultiplier asserts that the plan is optimal for the DP at its
// multiplier λ: the DP's objective there equals the plan's storage-free
// cost + λ·Σ seconds to chordTol, relative. A plan that misses the SLO
// carries λ = +Inf.
func checkMultiplier(t *testing.T, o *Optimizer, plan *Plan, tag string) {
	t.Helper()
	lambda := plan.LagrangeMultiplier
	if !plan.MeetsSLO {
		if !math.IsInf(lambda, 1) {
			t.Errorf("%s: a plan that misses the SLO has λ = %g, want +Inf", tag, lambda)
		}
		return
	}
	var cost, sec float64
	for _, l := range plan.Lambdas {
		a, b := segSpan(o, l)
		ti, ci, err := o.SpanEstimate(a, b, l.MemoryMB)
		if err != nil {
			t.Fatal(err)
		}
		cost, sec = cost+ci, sec+ti.Seconds()
	}
	res, ok := o.solveForLambda(lambda)
	if want := cost + lambda*sec; !ok || math.Abs(res.objective-want) > chordTol*want {
		t.Errorf("%s: at λ = %g the DP's objective is %v, the plan's %v", tag, lambda, res.objective, want)
	}
}

func TestFastMatchesReferencePlans(t *testing.T) {
	models := []string{"tinycnn", "linearnet", "tinytransformer", "vgg16", "resnet50"}
	// SLO as a fraction of the cost-optimal plan's time: 0 disables the
	// SLO, mid-range fractions bind it, and a near-zero fraction drives
	// the unattainable branch (MeetsSLO = false).
	fractions := []float64{0, 0.95, 0.7, 0.45, 0.01}
	for _, model := range models {
		for _, quota2021 := range []bool{false, true} {
			base := equivRequest(t, model, quota2021, false)
			comparePlans(t, base, fractions, fmt.Sprintf("%s quota2021=%v", model, quota2021))
		}
	}
	// Without memory pressure time stops falling at CPU saturation, so no
	// hull vertex lies past it.
	for _, model := range []string{"tinycnn", "resnet50"} {
		base := equivRequest(t, model, false, false)
		base.Perf.MemPressureAlpha = 0
		comparePlans(t, base, []float64{0.7}, model+" α=0")
	}
	for _, base := range stride1Requests(t) {
		comparePlans(t, base, []float64{0, 0.7, 0.01}, base.Model.Name+" quota2021 stride 1")
	}
}

// stride1Requests is the hot configuration — the 2021 quota searched at
// 1 MB stride, 10,113 blocks per span — on tinycnn and one mid-size
// model. The reference rescans every block of every span on every λ
// step, so it is skipped under -short.
func stride1Requests(t *testing.T) []Request {
	t.Helper()
	if testing.Short() {
		return nil
	}
	var reqs []Request
	for _, model := range []string{"tinycnn", "xception"} {
		reqs = append(reqs, stride1(equivRequest(t, model, false, false)))
	}
	return reqs
}

func TestFastMatchesReferencePlansBnB(t *testing.T) {
	// The branch-and-bound oracle costs a full QCR solve per (span, λ)
	// pair on both paths, so the BnB matrix stays small: tiny models on
	// a coarsened 2020 grid (the equivalence argument is independent of
	// block count), one SLO that binds.
	for _, model := range []string{"tinycnn", "linearnet"} {
		base := equivRequest(t, model, false, true)
		base.SearchStrideMB = 256
		comparePlans(t, base, []float64{0, 0.7}, model+" bnb")
	}
}

func TestFastMatchesReferenceConfigAPIs(t *testing.T) {
	// The fast path drops the dense per-block tables, so the config
	// helpers re-derive block values on demand; they must agree with the
	// reference's stored tables bit-for-bit.
	for _, quota2021 := range []bool{false, true} {
		req := equivRequest(t, "vgg16", quota2021, false)
		fastO, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		refO, err := newReference(req)
		if err != nil {
			t.Fatal(err)
		}
		S := len(fastO.Segments())
		for a := 0; a < S; a++ {
			for b := a + 1; b <= S; b++ {
				if got, want := fastO.SpanFeasible(a, b), refO.SpanFeasible(a, b); got != want {
					t.Fatalf("SpanFeasible(%d,%d): %v vs %v", a, b, got, want)
				}
				fm, rm := fastO.FeasibleMemories(a, b), refO.FeasibleMemories(a, b)
				if !reflect.DeepEqual(fm, rm) {
					t.Fatalf("FeasibleMemories(%d,%d): %v vs %v", a, b, fm, rm)
				}
				for _, mem := range fm {
					t1, c1, err1 := fastO.SpanEstimate(a, b, mem)
					t2, c2, err2 := refO.SpanEstimate(a, b, mem)
					if err1 != nil || err2 != nil || t1 != t2 || c1 != c2 {
						t.Fatalf("SpanEstimate(%d,%d,%d): (%v,%v,%v) vs (%v,%v,%v)",
							a, b, mem, t1, c1, err1, t2, c2, err2)
					}
				}
			}
		}
	}
}

func TestEnvelopeMatchesExactScan(t *testing.T) {
	// For every feasible span and a sweep of randomized multipliers, the
	// envelope query must return exactly the block index and objective
	// value of the reference's full scan (fresh objective slice +
	// lowest-index argmin).
	rng := rand.New(rand.NewSource(7))
	var reqs []Request
	for _, model := range []string{"tinycnn", "vgg16", "resnet50"} {
		for _, quota2021 := range []bool{false, true} {
			reqs = append(reqs, equivRequest(t, model, quota2021, false))
		}
	}
	reqs = append(reqs, stride1Requests(t)...)
	if !testing.Short() && !raceEnabled {
		// The zoo's largest span table and the span mix with the smallest
		// working sets — the longest runs of blocks past a prefix. Each of
		// its 3,570 spans is asked every sixth multiplier, a different
		// sixth from span to span.
		reqs = append(reqs, stride1(equivRequest(t, "mobilenet", false, false)))
	}
	for _, req := range reqs {
		every := 1
		if req.Model.Name == "mobilenet" {
			every = 6
		}
		tag := fmt.Sprintf("%s quota2021=%v stride=%d", req.Model.Name, req.Quota != nil, req.SearchStrideMB)
		fastO, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		solveAll(fastO)
		// The reference solves one span at a time: its dense tables for
		// all of mobilenet's spans at stride 1 would hold 600 MB.
		refO, err := newOptimizer(req)
		if err != nil {
			t.Fatal(err)
		}
		S := len(fastO.Segments())
		lambdas := []float64{0, 1e-9, 1e-6, 1e-3, 0.1, 5, 1e3}
		for i := 0; i < 40; i++ {
			lambdas = append(lambdas, math.Exp(rng.Float64()*30-12))
		}
		for a := 0; a < S; a++ {
			for b := a + 1; b <= S; b++ {
				fsc := &fastO.table[a][b]
				if !fsc.feasible {
					continue
				}
				rsc := refO.solveSpanRef(a, b)
				for i, lambda := range lambdas {
					if (i+a+b)%every != 0 {
						continue
					}
					gj, gv := fastO.selectBlock(fsc, lambda, &fastO.scr[0])
					wj, wv := refO.selectBlockRef(rsc, lambda)
					if gj != wj || gv != wv {
						t.Fatalf("%s span [%d,%d) λ=%g: envelope (%d, %v) vs scan (%d, %v)",
							tag, a, b, lambda, gj, gv, wj, wv)
					}
				}
			}
		}
	}
}
