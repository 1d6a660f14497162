// Quickstart: submit a pre-trained model to AMPS-Inf and serve one image.
//
// The framework profiles the model, solves the partitioning/provisioning
// MIQP, deploys the partitions as (simulated) lambda functions with the
// dependency layer attached, and serves inference with activations staged
// through S3 — all from a few lines of user code.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// A pre-trained Keras model stands in as a zoo build with
	// deterministic weights (the paper never relies on accuracy).
	model, err := zoo.Build("mobilenet", 0)
	if err != nil {
		return err
	}
	weights := nn.InitWeights(model, 42)

	fw := core.NewFramework(core.Options{})
	svc, err := fw.Submit(model, weights, core.SubmitOptions{
		SLO: 12 * time.Second, // response-time objective
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	fmt.Fprintf(w, "deployed %q on %d lambda(s) with memories %v MB\n",
		model.Name, svc.Partitions(), svc.Plan.Memories())
	fmt.Fprintf(w, "plan: est. response %.2fs, est. cost $%.6f (computed in %v)\n",
		svc.Plan.EstTime.Seconds(), svc.Plan.EstCost, svc.PlanningTime.Round(time.Millisecond))

	image := workload.Image(model, 7)
	rep, err := svc.Infer(image)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "served one image: completion %.2fs (simulated), cost $%.6f, class %d\n",
		rep.Completion.Seconds(), rep.Cost, tensor.ArgMax(rep.Output))

	// The prediction is bit-identical to running the un-partitioned model.
	direct, err := model.Forward(weights, image)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "matches direct forward pass: %v\n", tensor.AllClose(direct, rep.Output, 0))
	fmt.Fprintf(w, "total metered spend:\n%s\n", fw.Meter())
	return nil
}
