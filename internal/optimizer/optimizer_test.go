package optimizer

import (
	"math"
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
)

func request(model string) Request {
	m, err := zoo.Build(model, 0)
	if err != nil {
		panic(err)
	}
	return Request{Model: m, Perf: perf.Default()}
}

// stride1 points req at the hot configuration: the 2021 quota searched
// at 1 MB stride, 10,113 memory blocks per span.
func stride1(req Request) Request {
	q := pricing.Quota2021()
	req.Quota = &q
	req.SearchStrideMB = 1
	return req
}

func TestOptimizeTinyCNNSingleLambda(t *testing.T) {
	// TinyCNN fits one lambda; the cost-optimal plan should not split it
	// (splitting adds invocation + transfer costs with no benefit).
	plan, err := Optimize(request("tinycnn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) != 1 {
		t.Fatalf("tinycnn plan uses %d lambdas, want 1", len(plan.Lambdas))
	}
	if !plan.MeetsSLO {
		t.Fatal("no-SLO plan must report MeetsSLO")
	}
	if plan.EstCost <= 0 || plan.EstTime <= 0 {
		t.Fatalf("degenerate estimates: %v / %v", plan.EstCost, plan.EstTime)
	}
}

func TestOptimizeResNet50MustPartition(t *testing.T) {
	// ResNet50's 98 MB of weights + 169 MB dependencies exceed 250 MB:
	// every feasible plan uses ≥ 2 lambdas (the paper's Table 1 premise).
	plan, err := Optimize(request("resnet50"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) < 2 {
		t.Fatalf("resnet50 plan uses %d lambdas; deployment limit requires ≥2", len(plan.Lambdas))
	}
	// Every partition respects the deployment limit.
	p := perf.Default()
	for i, l := range plan.Lambdas {
		deploy := l.Profile.DeployBytes() + int64(p.DepsMB*(1<<20))
		if deploy > int64(pricing.LambdaDeployLimitMB)<<20 {
			t.Errorf("partition %d deployment %d MB over limit", i, deploy>>20)
		}
		if l.Profile.TmpBytes() > int64(pricing.LambdaTmpLimitMB)<<20 {
			t.Errorf("partition %d tmp %d MB over limit", i, l.Profile.TmpBytes()>>20)
		}
		if !pricingValidBlock(l.MemoryMB) {
			t.Errorf("partition %d memory %d not a valid block", i, l.MemoryMB)
		}
	}
	// Bounds must partition the layer range contiguously.
	bounds := plan.Bounds()
	if bounds[0] != 1 || bounds[len(bounds)-1] != len(request("resnet50").Model.Layers) {
		t.Fatalf("bounds %v do not cover the model", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds %v not increasing", bounds)
		}
	}
}

func pricingValidBlock(mem int) bool {
	return mem >= 128 && mem <= 3008 && (mem-128)%64 == 0
}

func TestDPMatchesExhaustive(t *testing.T) {
	for _, name := range []string{"tinycnn", "linearnet"} {
		o, err := New(request(name))
		if err != nil {
			t.Fatal(err)
		}
		want, ok := exhaustiveMinCost(o)
		if !ok {
			t.Fatalf("%s: exhaustive enumeration unavailable (%d segments)", name, len(o.Segments()))
		}
		plan, err := o.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		// Compare without the tiny storage term the DP defers.
		var got float64
		for _, l := range plan.Lambdas {
			_, cost, err := o.SpanEstimate(l.SegLo, l.SegHi, l.MemoryMB)
			if err != nil {
				t.Fatal(err)
			}
			got += cost
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("%s: DP cost %.9f vs exhaustive %.9f", name, got, want)
		}
	}
}

func indexOfBlock(blocks []int, mem int) int {
	for i, b := range blocks {
		if b == mem {
			return i
		}
	}
	return -1
}

func TestSLOReducesTimeAtHigherCost(t *testing.T) {
	req := request("resnet50")
	unconstrained, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	// Demand 13% faster than the cost-optimal plan (achievable: larger
	// memory blocks buy speed, at a price).
	req.SLO = time.Duration(float64(unconstrained.EstTime) * 0.87)
	constrained, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if !constrained.MeetsSLO {
		t.Fatalf("SLO %v not met (plan time %v)", req.SLO, constrained.EstTime)
	}
	if constrained.EstTime > req.SLO {
		t.Fatalf("plan time %v exceeds SLO %v", constrained.EstTime, req.SLO)
	}
	if constrained.EstCost < unconstrained.EstCost {
		t.Fatalf("SLO plan cheaper (%.6f) than unconstrained optimum (%.6f)",
			constrained.EstCost, unconstrained.EstCost)
	}
	if constrained.LagrangeMultiplier <= 0 {
		t.Fatal("binding SLO must produce a positive multiplier")
	}
}

func TestGenerousSLOKeepsCostOptimum(t *testing.T) {
	req := request("mobilenet")
	base, _ := Optimize(req)
	req.SLO = base.EstTime * 10
	withSLO, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if withSLO.EstCost != base.EstCost {
		t.Fatalf("generous SLO changed cost: %.6f vs %.6f", withSLO.EstCost, base.EstCost)
	}
	if withSLO.LagrangeMultiplier != 0 {
		t.Fatal("non-binding SLO should leave λ = 0")
	}
}

func TestImpossibleSLOFlagged(t *testing.T) {
	req := request("resnet50")
	req.SLO = time.Millisecond
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MeetsSLO {
		t.Fatal("1 ms SLO reported as met")
	}
}

func TestMaxLambdasRespected(t *testing.T) {
	req := request("resnet50")
	req.MaxLambdas = 2
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Lambdas) > 2 {
		t.Fatalf("plan uses %d lambdas, cap 2", len(plan.Lambdas))
	}
}

func TestMaxLayersPerPartition(t *testing.T) {
	req := request("mobilenet")
	base, _ := Optimize(req)
	maxLayers := 0
	for _, l := range base.Lambdas {
		if n := l.LayerHi - l.LayerLo; n > maxLayers {
			maxLayers = n
		}
	}
	req.MaxLayersPerPartition = maxLayers / 2
	plan, err := Optimize(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range plan.Lambdas {
		if n := l.LayerHi - l.LayerLo; n > req.MaxLayersPerPartition {
			t.Fatalf("partition %d has %d layers, cap %d", i, n, req.MaxLayersPerPartition)
		}
	}
}

func TestBnBPathMatchesScanPath(t *testing.T) {
	reqScan := request("tinycnn")
	reqBnB := request("tinycnn")
	reqBnB.UseBnB = true
	a, err := Optimize(reqScan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(reqBnB)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.EstCost-b.EstCost) > 1e-9 {
		t.Fatalf("scan %.9f vs BnB %.9f", a.EstCost, b.EstCost)
	}
	am, bm := a.Memories(), b.Memories()
	if len(am) != len(bm) {
		t.Fatalf("different partition counts: %v vs %v", am, bm)
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("different memories: %v vs %v", am, bm)
		}
	}
}

func TestVGG16InfeasibleSingleLayerTooBig(t *testing.T) {
	// VGG16's fc1 weights alone (≈392 MB) exceed any partition's
	// deployment budget; the optimizer must report infeasibility rather
	// than emit a broken plan.
	_, err := Optimize(request("vgg16"))
	if err == nil {
		t.Fatal("VGG16 should be infeasible under the 250 MB limit (paper Sec. 1: VGG-class models)")
	}
}

func TestPlanPerLambdaEstimatesSum(t *testing.T) {
	plan, err := Optimize(request("inceptionv3"))
	if err != nil {
		t.Fatal(err)
	}
	var tsum time.Duration
	var csum float64
	for _, l := range plan.Lambdas {
		tsum += l.EstTime
		csum += l.EstCost
	}
	if tsum != plan.EstTime {
		t.Fatalf("times do not sum: %v vs %v", tsum, plan.EstTime)
	}
	if math.Abs(csum-plan.EstCost) > 1e-12 {
		t.Fatalf("costs do not sum: %v vs %v", csum, plan.EstCost)
	}
}

func TestNewRejectsInvalidQuotaAndPerf(t *testing.T) {
	// Each of these used to panic (integer divide by zero in
	// SearchBlocks, blocks[-1]), spin forever (MinFeasibleMemoryMB with
	// step 0) or convert +Inf to a Duration; New must return an error.
	quota := func(mut func(*pricing.Quota)) *pricing.Quota {
		q := pricing.Quota2020()
		mut(&q)
		return &q
	}
	cases := []struct {
		name  string
		quota *pricing.Quota
		perf  perf.Params
	}{
		{"zero memory step", quota(func(q *pricing.Quota) { q.MemoryStepMB = 0 }), perf.Default()},
		{"negative memory step", quota(func(q *pricing.Quota) { q.MemoryStepMB = -64 }), perf.Default()},
		{"min above max", quota(func(q *pricing.Quota) { q.MinMemoryMB, q.MaxMemoryMB = 3008, 128 }), perf.Default()},
		{"zero min memory", quota(func(q *pricing.Quota) { q.MinMemoryMB = 0 }), perf.Default()},
		{"zero-value quota", &pricing.Quota{}, perf.Default()},
		{"zero-value perf", nil, perf.Params{}},
		{"negative compute rate", nil, func() perf.Params { p := perf.Default(); p.PeakGFLOPS = -1; return p }()},
		{"NaN compute rate", nil, func() perf.Params { p := perf.Default(); p.PeakGFLOPS = math.NaN(); return p }()},
		{"infinite compute rate", nil, func() perf.Params { p := perf.Default(); p.PeakGFLOPS = math.Inf(1); return p }()},
		// Time would rise with memory: the envelope's and the
		// certificate's precondition.
		{"negative memory pressure", nil, func() perf.Params { p := perf.Default(); p.MemPressureAlpha = -0.2; return p }()},
		{"NaN load rate", nil, func() perf.Params { p := perf.Default(); p.WeightsLoadSecPerMB = math.NaN(); return p }()},
		// Each of these planned one 128 MB lambda with a negative EstTime
		// (−2562047h43m30.57s for the infinite scale) that met any SLO.
		{"negative cold start", nil, func() perf.Params { p := perf.Default(); p.ColdStartBase = -10 * time.Second; return p }()},
		{"negative invoke overhead", nil, func() perf.Params { p := perf.Default(); p.InvokeOverhead = -time.Second; return p }()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := request("tinycnn")
			req.Quota, req.Perf = c.quota, c.perf
			for _, stride := range []int{0, 1} {
				req.SearchStrideMB = stride
				if o, err := New(req); err == nil {
					t.Fatalf("stride %d: New accepted the request (optimizer %v)", stride, o != nil)
				}
			}
		})
	}
	for name, mut := range map[string]func(*Request){
		"NaN weight scale":      func(r *Request) { r.WeightScale = math.NaN() },
		"infinite weight scale": func(r *Request) { r.WeightScale = math.Inf(1) },
	} {
		req := request("resnet50")
		mut(&req)
		if plan, err := Optimize(req); err == nil {
			t.Errorf("%s: Optimize accepted the request and planned %+v", name, plan)
		}
	}
	// The shipped quotas and parameters stay valid.
	for _, q := range []pricing.Quota{pricing.Quota2020(), pricing.Quota2021()} {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := perf.Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeDPSolves(t *testing.T) {
	// The hull walk's cost in DP solves across the zoo, on the 2020 grid
	// and the 2021 grid at its automatic stride: at most 20 when the SLO
	// can be met (the λ = 0 plan, the fastest, the bracket and the walk),
	// and 2 when it cannot (the λ = 0 plan and the fastest). The λ
	// bisection took 42–47 and 62.
	most, cases := [2]int{}, [2]int{}
	for _, name := range zoo.Names() {
		for _, quota2021 := range []bool{false, true} {
			req := equivRequest(t, name, quota2021, false)
			o, err := New(req)
			if err != nil {
				t.Fatal(err)
			}
			base, err := o.OptimizeCostOnly()
			if err != nil {
				continue // vgg16: no partitioning fits the 2020 quota
			}
			for _, frac := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99} {
				req.SLO = time.Duration(frac * float64(base.EstTime))
				o, err := New(req)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := o.Optimize()
				if err != nil {
					t.Fatal(err)
				}
				meets, limit := 0, 20
				if !plan.MeetsSLO {
					meets, limit = 1, 2
				}
				cases[meets]++
				most[meets] = max(most[meets], o.dpSolves)
				if o.dpSolves > limit {
					t.Errorf("%s quota2021=%v at %.2f×: %d DP solves (MeetsSLO %v), limit %d", name, quota2021, frac, o.dpSolves, plan.MeetsSLO, limit)
				}
			}
		}
	}
	t.Logf("SLO met: %d cases, at most %d solves; SLO missed: %d cases, at most %d", cases[0], most[0], cases[1], most[1])
}

func TestFastestPlanOnTimePlateau(t *testing.T) {
	// Without memory pressure a span's time stops falling at CPU
	// saturation. A plan for an SLO no plan meets is a fastest plan, each
	// partition on the smallest block that runs that fast: the block
	// below it is slower or not allowed, and some partition sits below
	// the grid's largest block.
	for _, req := range []Request{request("resnet50"), stride1(request("tinycnn"))} {
		req.Perf.MemPressureAlpha = 0
		ref, err := newReference(req)
		if err != nil {
			t.Fatal(err)
		}
		base, err := ref.OptimizeCostOnly()
		if err != nil {
			t.Fatal(err)
		}
		req.SLO = base.EstTime / 100
		if ref, err = newReference(req); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(req)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := o.Optimize()
		if err != nil || plan.MeetsSLO || !math.IsInf(plan.LagrangeMultiplier, 1) || !math.IsInf(plan.Gap, 1) {
			t.Fatalf("%s: plan %+v, err %v: want one that misses the SLO, λ and Gap +Inf", req.Model.Name, plan, err)
		}
		if plan.EstTime != want.EstTime {
			t.Errorf("%s: fastest plan takes %v, the bisection's %v", req.Model.Name, plan.EstTime, want.EstTime)
		}
		plateau := false
		for _, l := range plan.Lambdas {
			j := indexOfBlock(o.blocks, l.MemoryMB)
			plateau = plateau || j < len(o.blocks)-1
			if j == 0 {
				continue
			}
			if ti, _, err := o.SpanEstimate(l.SegLo, l.SegHi, o.blocks[j-1]); err == nil && ti <= l.EstTime {
				t.Errorf("%s: partition [%d, %d) at %d MB; %d MB is as fast", req.Model.Name, l.SegLo, l.SegHi, l.MemoryMB, o.blocks[j-1])
			}
		}
		if !plateau {
			t.Errorf("%s: every partition at the largest block; no plateau exercised", req.Model.Name)
		}
	}
}

// exhaustiveMinCost enumerates every cut (all 2^(S-1) compositions,
// S ≤ 22) with the cost-optimal block per partition — the paper's
// Baseline 3 oracle — and returns the minimal total cost.
func exhaustiveMinCost(o *Optimizer) (float64, bool) {
	S := len(o.segs)
	if S > 22 {
		return 0, false
	}
	best := math.Inf(1)
	found := false
	// Each bitmask over S-1 boundaries defines a cut.
	for mask := 0; mask < 1<<(S-1); mask++ {
		total := 0.0
		feasible := true
		a := 0
		parts := 0
		for b := 1; b <= S; b++ {
			if b < S && mask&(1<<(b-1)) == 0 {
				continue
			}
			sc := &o.table[a][b]
			j, _ := o.selectBlock(sc, 0, &o.scr[0])
			if j < 0 {
				feasible = false
				break
			}
			_, cost, _ := o.blockTimeCost(sc, j)
			total += cost
			parts++
			a = b
		}
		if feasible && parts <= o.req.MaxLambdas && total < best {
			best = total
			found = true
		}
	}
	return best, found
}
