// Serving under load: drive an AMPS-Inf deployment with an open-loop
// Poisson request trace through the serving scheduler and report the
// latency distribution and cost — the regime the BATCH baseline's
// buffering targets. Compare a cost-optimal deployment against an
// SLO-tightened one to see the provisioning knob at work.
//
//	go run ./examples/servingload
package main

import (
	"fmt"
	"log"
	"time"

	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/serving"
	"ampsinf/internal/workload"
)

func main() {
	const (
		requests = 30
		ratePerS = 0.08 // one request every ~12.5 s
	)
	model, err := zoo.Build("mobilenet", 0)
	if err != nil {
		log.Fatal(err)
	}
	weights := nn.InitWeights(model, 42)
	inputs := workload.Images(model, requests, 17)
	arrivals := workload.PoissonArrivals(requests, ratePerS, 99)

	fmt.Printf("trace: %d requests over %.0fs (Poisson, %.2f req/s)\n\n",
		requests, arrivals[len(arrivals)-1].Seconds(), ratePerS)
	fmt.Println("deployment        mems(MB)   avg lat    p95 lat    makespan   cost($)")

	for _, cfg := range []struct {
		label string
		slo   time.Duration
	}{
		{"cost-optimal", 0},
		{"SLO 8s", 8 * time.Second},
	} {
		fw := core.NewFramework(core.Options{})
		svc, err := fw.Submit(model, weights, core.SubmitOptions{
			SLO: cfg.slo, SkipCompute: true, NamePrefix: "load-" + cfg.label,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := svc.Serve(inputs, arrivals, serving.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s  %-9s  %7.2fs   %7.2fs   %7.2fs   %.5f\n",
			cfg.label, fmt.Sprint(svc.Plan.Memories()),
			rep.AvgLatency.Seconds(), rep.P95Latency.Seconds(),
			rep.Makespan.Seconds(), rep.TotalCost)
		svc.Close()
	}
	fmt.Println("\nA tighter SLO buys shorter service times, so fewer requests overlap")
	fmt.Println("and cold-start a second container — lower tail latency at a higher")
	fmt.Println("per-request cost.")
}
