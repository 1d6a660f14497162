// Custom model: build your own layer graph with the nn.Builder, let
// AMPS-Inf partition and deploy it, and verify that the partitioned
// serverless prediction is bit-identical to a direct forward pass —
// including across a residual block, which constrains where the model
// may legally be cut.
//
//	go run ./examples/custommodel
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// buildClassifier assembles a small residual CNN for 48×48 RGB inputs.
func buildClassifier() *nn.Model {
	b := nn.NewBuilder("custom-resnet", 48, 48, 3)
	x := b.Conv("stem", b.Input(), 16, 3, 3, 1, tensor.Same, nn.ActReLU)
	x = b.MaxPool("pool1", x, 2, 2, tensor.Valid)

	// A residual block: no valid cut point exists between "stem_out" and
	// "merge" because the skip connection keeps the input alive.
	skip := x
	y := b.Conv("res_a", x, 16, 3, 3, 1, tensor.Same, nn.ActReLU)
	y = b.Conv("res_b", y, 16, 3, 3, 1, tensor.Same, nn.ActNone)
	x = b.Add("merge", nn.ActReLU, skip, y)

	x = b.Conv("head_conv", x, 32, 3, 3, 2, tensor.Same, nn.ActReLU)
	x = b.BatchNorm("head_bn", x)
	x = b.GlobalAvgPool("gap", x)
	x = b.Dense("fc", x, 64, nn.ActReLU)
	b.Dense("out", x, 7, nn.ActSoftmax)
	return b.Model()
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	model := buildClassifier()
	fmt.Fprint(w, model.Summary())

	segs := model.Segments()
	fmt.Fprintf(w, "\nvalid partition segments: %d (the residual block is atomic)\n\n", len(segs))

	weights := nn.InitWeights(model, 11)
	fw := core.NewFramework(core.Options{})
	// Cap layers per partition to force a real multi-lambda pipeline even
	// though this model is tiny.
	svc, err := fw.Submit(model, weights, core.SubmitOptions{MaxLayersPerPartition: 5})
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprintf(w, "deployed on %d lambdas with memories %v MB\n", svc.Partitions(), svc.Plan.Memories())

	image := workload.Image(model, 99)
	rep, err := svc.Infer(image)
	if err != nil {
		return err
	}
	direct, err := model.Forward(weights, image)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serverless prediction class %d, direct class %d, bit-identical: %v\n",
		tensor.ArgMax(rep.Output), tensor.ArgMax(direct), tensor.AllClose(rep.Output, direct, 0))
	fmt.Fprintf(w, "completion %.2fs (simulated), cost $%.6f\n", rep.Completion.Seconds(), rep.Cost)

	// The zoo models use the same builder; e.g. compare segment structure.
	tiny := zoo.TinyCNN(0)
	fmt.Fprintf(w, "\nfor reference, zoo tinycnn has %d segments\n", len(tiny.Segments()))
	return nil
}
