package optimizer

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"ampsinf/internal/nn/zoo"
)

// A DP solve solves only the live spans: those whose floor, with the
// least floor sums before and after it, stays within the value of the
// floor-shortest cut (Optimizer.bound). These tests pin that the live set
// leaves every DP result as the full table gives it, how small the set
// is, and how close the floor it rests on lies to the spans' values.

// zooGrids is every zoo model on the three block grids: the 2020 quota,
// the 2021 quota at its automatic stride and the 2021 quota at stride 1.
// The models with more than 30 segments are skipped under -short and
// under the race detector.
func zooGrids(t *testing.T) (reqs []Request, grids []string) {
	t.Helper()
	for _, name := range zoo.Names() {
		req := equivRequest(t, name, false, false)
		if (testing.Short() || raceEnabled) && len(req.Model.Segments()) > 30 {
			continue
		}
		reqs = append(reqs, req, equivRequest(t, name, true, false), stride1(req))
		grids = append(grids, "2020", "2021", "2021 stride 1")
	}
	return reqs, grids
}

func TestLiveSpansMatchFullTable(t *testing.T) {
	// At every multiplier Optimize visits, the DP over the live spans
	// returns what the DP over every span, each solved at that multiplier
	// on an optimizer of its own, returns: the same objective bits, cut
	// and blocks. The full-table optimizer answers before the live one
	// has solved any span at a multiplier above 0, so the live one solves
	// spans for the first time at λ > 0 too.
	var steps, fallbacks int
	run := func(req Request, tag string) {
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = o.optimize(func(lambda float64) (dpResult, bool) {
			got, ok := o.solveForLambda(lambda)
			want, wok := full.solveDP(func(s *span) (int, float64) {
				return full.selectBlock(&full.table[s.a][s.b], lambda, &full.scr[0])
			})
			if ok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s λ=%g: live spans give %+v (%v), the full table %+v (%v)", tag, lambda, got, ok, want, wok)
			}
			if o.bound(lambda) == math.MaxFloat64 {
				fallbacks++
			}
			steps++
			return got, ok
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	// runSLOs runs req with no SLO and with SLOs at the fractions of its
	// cost-optimal time, if it has a plan.
	runSLOs := func(req Request, fracs []float64, tag string) {
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		base, err := o.OptimizeCostOnly()
		if err != nil {
			return // vgg16 on every grid; K = 1 where one lambda cannot fit
		}
		for _, frac := range append([]float64{0}, fracs...) {
			req.SLO = time.Duration(frac * float64(base.EstTime))
			run(req, fmt.Sprintf("%s SLO %.3f×", tag, frac))
		}
	}
	reqs, grids := zooGrids(t)
	for i, req := range reqs {
		for _, K := range []int{1, 2, 16} {
			req.MaxLambdas = K
			runSLOs(req, []float64{0.95, 0.985, 0.5}, fmt.Sprintf("%s %s K=%d", req.Model.Name, grids[i], K))
		}
	}
	// Splitting pays under heavy memory pressure and little fixed time:
	// with at most 70 of xception's 134 layers a partition, its
	// floor-shortest cut has more spans than K = 2 allows, and every
	// reachable span is live.
	req := equivRequest(t, "xception", false, false)
	req.Perf.MemPressureAlpha, req.Perf.ColdStartBase, req.Perf.InvokeOverhead = 20, time.Millisecond, 0
	req.MaxLambdas, req.MaxLayersPerPartition = 2, 70
	before := fallbacks
	runSLOs(req, []float64{0.95, 0.5}, "xception α=20 cap 70 K=2")
	if fallbacks == before {
		t.Fatal("the capped xception never had a floor-shortest cut of more than K spans")
	}
	for _, name := range []string{"tinycnn", "linearnet"} {
		runSLOs(equivRequest(t, name, false, true), []float64{0.95, 0.5}, name+" bnb")
	}
	t.Logf("%d DP solves compared, %d without an achievable bound", steps, fallbacks)
}

func TestLiveSpanCounts(t *testing.T) {
	// The spans a λ = 0 solve finds live, and the spans solved by the end
	// of an Optimize at 0.985 × the cost-optimal time, per model on the
	// 2020 / 2021 / 2021 stride-1 grids. New solves none: it used to solve
	// all S(S+1)/2 (mobilenet 3,570, bertbase 479).
	want := map[string][2][3]int{
		"bertbase":        {{44, 44, 44}, {44, 44, 44}},
		"inceptionv3":     {{6, 2, 2}, {12, 2, 4}},
		"linearnet":       {{1, 1, 1}, {1, 1, 1}},
		"mobilenet":       {{1, 1, 1}, {1, 1, 1}},
		"resnet50":        {{8, 4, 4}, {20, 4, 4}},
		"tinycnn":         {{1, 1, 1}, {1, 1, 1}},
		"tinytransformer": {{1, 1, 1}, {1, 1, 1}},
		"xception":        {{18, 2, 2}, {30, 4, 2}},
	}
	reqs, grids := zooGrids(t)
	for i, req := range reqs {
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		if n := chainBlocks(o); o.spansSolved != 0 || n != 0 {
			t.Fatalf("%s %s: New solved %d spans, evaluating %d blocks in chains", req.Model.Name, grids[i], o.spansSolved, n)
		}
		base, err := o.OptimizeCostOnly()
		if err != nil {
			continue // vgg16: no plan on any grid
		}
		zero := o.spansSolved
		req.SLO = time.Duration(0.985 * float64(base.EstTime))
		if o, err = New(req); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Optimize(); err != nil {
			t.Fatal(err)
		}
		w := want[req.Model.Name]
		if zero != w[0][i%3] || o.spansSolved != w[1][i%3] {
			t.Errorf("%s %s: %d spans live at λ = 0, %d solved by Optimize at 0.985×; want %d and %d of %d",
				req.Model.Name, grids[i], zero, o.spansSolved, w[0][i%3], w[1][i%3], len(o.spans))
		}
	}
}

func TestFloorTightAcrossZoo(t *testing.T) {
	// Every feasible zoo span on the three grids: the floor model's
	// minimum over the blocks from the working-set floor up lies at or
	// under the span's value — its least cost + λ·sec over the allowed
	// blocks — at λ = 0 and at three multipliers above, and within 2 % of
	// it at λ = 0, the bound the live spans rest on. The 40-step bisection
	// it replaced stopped on the saturation kink, where the one-sided
	// tangent pulled the floor down to 0.17–0.23 of the value.
	lambdas := []float64{0, 1e-7, 1e-5, 1e-3}
	worst, spans := 1.0, 0
	reqs, grids := zooGrids(t)
	for i, req := range reqs {
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		L := len(o.blocks)
		ts, costs := make([]time.Duration, L), make([]float64, L)
		for _, s := range o.spans {
			sc := &o.table[s.a][s.b]
			o.grid.eval(&sc.work, sc.lo, ts[sc.lo:], costs[sc.lo:])
			for _, lambda := range lambdas {
				value := math.Inf(1)
				for k := sc.lo; k < L; k++ {
					if ts[k] <= o.req.Quota.Timeout {
						value = min(value, lineAt(costs[k], ts[k].Seconds(), lambda))
					}
				}
				f, ok := o.grid.model(&sc.work, lambda)
				if !ok {
					t.Fatalf("%s %s span [%d,%d): no floor model", req.Model.Name, grids[i], s.a, s.b)
				}
				floor, _ := f.lowest(o.grid.memF[sc.lo], o.grid.memF[L-1])
				if floor > value || lambda == 0 && floor < 0.98*value {
					t.Fatalf("%s %s span [%d,%d) λ=%g: floor %v, value %v", req.Model.Name, grids[i], s.a, s.b, lambda, floor, value)
				}
				if lambda == 0 {
					worst = min(worst, floor/value)
				}
			}
			spans++
		}
	}
	t.Logf("%d spans; the floor is at least %.4f of the value at λ = 0", spans, worst)
}
