package optimizer

import (
	"testing"
	"time"

	"ampsinf/internal/miqp"
)

// The paper reports the optimizer overhead as "within a few seconds on a
// laptop"; these benches measure our reproduction's planning cost.

func BenchmarkNewResNet50(b *testing.B) {
	req := request("resnet50")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeCostOnly(b *testing.B) {
	o, err := New(request("resnet50"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.OptimizeCostOnly(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeWithBindingSLO(b *testing.B) {
	req := request("resnet50")
	base, err := Optimize(req)
	if err != nil {
		b.Fatal(err)
	}
	req.SLO = time.Duration(float64(base.EstTime) * 0.88)
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeQuota2021Stride1 plans ResNet50 on the fine-grained
// December-2020 quota grid (10,240 MB in 1 MB steps → ~10k memory
// blocks) with a binding SLO, the worst case the ROADMAP's Figure-10
// sweep extension hits: every λ step of the search re-solves the
// per-span block selection over the full grid.
func BenchmarkOptimizeQuota2021Stride1(b *testing.B) {
	// 12% under the cost-optimal time, so Optimize has to search λ.
	req := stride1Request(b, "resnet50", 0.88)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := New(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeUnattainableSLOStride1 plans for an SLO at half the
// cost-optimal time, which no plan meets. Optimize learns that from the
// fastest plan, without moving a window; the λ bisection it replaced
// drove λ up to 1.5e48 and so ran every span's chain to completion.
func BenchmarkOptimizeUnattainableSLOStride1(b *testing.B) {
	for _, model := range []string{"mobilenet", "resnet50"} {
		req := stride1Request(b, model, 0.5)
		b.Run(model, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o, err := New(req)
				if err != nil {
					b.Fatal(err)
				}
				plan, err := o.Optimize()
				if err != nil || plan.MeetsSLO {
					b.Fatalf("plan %+v, err %v: want a plan that misses the SLO", plan, err)
				}
			}
		})
	}
}

// stride1Request builds the ~10k-block request with an SLO at frac of
// the cost-optimal plan's response time.
func stride1Request(b *testing.B, model string, frac float64) Request {
	b.Helper()
	req := stride1(request(model))
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	base, err := o.OptimizeCostOnly()
	if err != nil {
		b.Fatal(err)
	}
	req.SLO = time.Duration(float64(base.EstTime) * frac)
	return req
}

// BenchmarkNewMobileNetQuota2021Stride1 builds the largest span table
// the zoo produces: MobileNet's 3,570 spans over the 10,113-block 2021
// grid (≈36 M block evaluations), the dominant case of the repo
// benchmark's plan_zoo round.
func BenchmarkNewMobileNetQuota2021Stride1(b *testing.B) {
	req := stride1(request("mobilenet"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeBnBPath(b *testing.B) {
	req := request("tinycnn")
	req.UseBnB = true
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Optimize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeBnBCostOnly is the λ = 0 plan in BnB mode, which
// reuses the solves the table build recorded.
func BenchmarkOptimizeBnBCostOnly(b *testing.B) {
	req := request("tinycnn")
	req.UseBnB = true
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.OptimizeCostOnly(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBnBBuildSolves times miqp.Solve on tinycnn's 45 table-build
// span problems (λ = 0, one-hot over the allowed blocks), the solves
// that dominate a BnB-mode New.
func BenchmarkBnBBuildSolves(b *testing.B) {
	req := request("tinycnn")
	req.UseBnB = true
	o, err := New(req)
	if err != nil {
		b.Fatal(err)
	}
	var probs []*miqp.Problem
	for _, row := range o.table {
		for _, sc := range row {
			if idx, q, pvec, ones := bnbProblemRef(sc, 0); len(idx) > 0 {
				probs = append(probs, &miqp.Problem{
					N: len(idx), Q: q, P: pvec,
					Eq: []miqp.LinConstraint{{A: ones, B: 1}},
				})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range probs {
			if _, err := miqp.Solve(pr, miqp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
