// SLO sweep: explore the cost/latency frontier the optimizer navigates.
// For a large model that must be partitioned, sweep the response-time SLO
// from generous to aggressive and print the plan chosen at each point —
// the serverless analogue of the paper's Fig 1 trade-off, driven by the
// MIQP rather than a manual memory knob.
//
//	go run ./examples/slosweep
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	model, err := zoo.Build("resnet50", 0)
	if err != nil {
		return err
	}
	o, err := optimizer.New(optimizer.Request{Model: model, Perf: perf.Default()})
	if err != nil {
		return err
	}

	base, err := o.OptimizeCostOnly()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cost-optimal (no SLO): %d lambdas %v MB, %.2fs, $%.6f\n\n",
		len(base.Lambdas), base.Memories(), base.EstTime.Seconds(), base.EstCost)

	fmt.Fprintln(w, "SLO(s)   met  lambdas  memories(MB)        time(s)  cost($)    λ")
	for factor := 1.0; factor >= 0.70; factor -= 0.05 {
		slo := time.Duration(float64(base.EstTime) * factor)
		plan, err := optimizer.Optimize(optimizer.Request{
			Model: model, Perf: perf.Default(), SLO: slo,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%6.2f   %-5v %-8d %-18s  %6.2f   %.6f   %.2g\n",
			slo.Seconds(), plan.MeetsSLO, len(plan.Lambdas), fmt.Sprint(plan.Memories()),
			plan.EstTime.Seconds(), plan.EstCost, plan.LagrangeMultiplier)
	}
	fmt.Fprintln(w, "\nTighter SLOs buy speed with larger memory blocks at higher cost —")
	fmt.Fprintln(w, "the gap between AMPS-Inf and the cost-optimal Baseline 3 in Figs 9-10.")
	return nil
}
