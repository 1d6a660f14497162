package optimizer

import (
	"math"
	"sort"
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
)

// label is a partial plan in the exact search: the response time and
// the cost, storage term included, of the partitions chosen so far.
type label struct {
	t time.Duration
	c float64
}

// pareto sorts labels by time and keeps those cheaper than every faster
// one.
func pareto(ls []label) []label {
	sort.Slice(ls, func(i, j int) bool { return ls[i].t < ls[j].t || ls[i].t == ls[j].t && ls[i].c < ls[j].c })
	out := ls[:0]
	for _, l := range ls {
		if len(out) == 0 || l.c < out[len(out)-1].c {
			out = append(out, l)
		}
	}
	return out
}

// exactFrontier solves the SLO-constrained problem the planner relaxes,
// exactly, by a per-cut Pareto merge: for every cut of at most
// MaxLambdas partitions it merges the spans' (time, cost) blocks, the
// position-dependent storage term q_i·T_i·H included as assemble adds it,
// keeping the Pareto labels. It returns the union of the cuts' labels as
// a frontier up to limit: times ascending, costs strictly descending.
func exactFrontier(t *testing.T, o *Optimizer, limit time.Duration) []label {
	t.Helper()
	S := len(o.segs)
	var all []label
	var walk func(a, parts int, q int64, ls []label)
	walk = func(a, parts int, q int64, ls []label) {
		for b := a + 1; b <= S && parts < o.req.MaxLambdas; b++ {
			mems := o.FeasibleMemories(a, b)
			if len(mems) == 0 {
				continue
			}
			var next []label
			for _, mem := range mems {
				ti, ci, err := o.SpanEstimate(a, b, mem)
				if err != nil {
					t.Fatal(err)
				}
				ci += float64(q) / (1 << 30) * ti.Seconds() * pricing.S3StoragePerGBSecond
				for _, l := range ls {
					if l.t+ti <= limit {
						next = append(next, label{l.t + ti, l.c + ci})
					}
				}
			}
			next = pareto(next)
			if b == S {
				all = append(all, next...)
				continue
			}
			walk(b, parts+1, q+o.profiler.Profile(a, b).OutBytes, next)
		}
	}
	walk(0, 0, 0, []label{{}})
	return pareto(all)
}

// cheapestWithin is the least cost on the frontier with time ≤ slo
// (+Inf if none).
func cheapestWithin(front []label, slo time.Duration) float64 {
	i := sort.Search(len(front), func(i int) bool { return front[i].t > slo })
	if i == 0 {
		return math.Inf(1)
	}
	return front[i-1].c
}

func TestOptimizeAgainstExactOracle(t *testing.T) {
	// The hull walk returns a hull vertex; the exact optimum may lie off
	// the hull, between two vertices of the 2020 grid's 100 ms billing
	// staircase. Its gap bound must cover the real gap, and the plan must
	// never be dearer at a looser SLO.
	for _, model := range []string{"tinycnn", "linearnet", "tinytransformer"} {
		req := request(model)
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		base, err := o.OptimizeCostOnly()
		if err != nil {
			t.Fatal(err)
		}
		front := exactFrontier(t, o, base.EstTime)
		prevCost, worst, certified, gaps := math.Inf(1), 0.0, 0.0, 0
		for pct := 40; pct <= 100; pct++ {
			req.SLO = time.Duration(float64(base.EstTime) * float64(pct) / 100)
			plan, err := Optimize(req)
			if err != nil {
				t.Fatal(err)
			}
			exact := cheapestWithin(front, req.SLO)
			if !plan.MeetsSLO {
				if !math.IsInf(exact, 1) || !math.IsInf(plan.Gap, 1) {
					t.Errorf("%s at %d%%: plan misses the SLO with gap %v; the exact optimum costs %v", model, pct, plan.Gap, exact)
				}
				continue
			}
			const tol = 1e-12
			if lb := plan.EstCost * (1 - plan.Gap); lb > exact*(1+tol) || exact > plan.EstCost*(1+tol) {
				t.Errorf("%s at %d%%: exact optimum %v outside [EstCost·(1 − Gap), EstCost] = [%v, %v]", model, pct, exact, lb, plan.EstCost)
			}
			if plan.EstCost > prevCost {
				t.Errorf("%s at %d%%: cost rises from %v to %v as the SLO loosens", model, pct, prevCost, plan.EstCost)
			}
			prevCost, certified = plan.EstCost, max(certified, plan.Gap)
			if g := (plan.EstCost - exact) / exact; g > 0 {
				gaps, worst = gaps+1, max(worst, g)
			}
		}
		t.Logf("%s: a real gap at %d of 61 SLOs, the worst %.2f %% (certified ≤ %.2f %%)", model, gaps, 100*worst, 100*certified)
	}
}
