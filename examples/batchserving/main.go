// Batch serving: the paper's Sec. 5.4 scenario. Serve many images through
// an AMPS-Inf deployment in three ways, each built from Service.Infer —
// one batched pass over the tensor.Stack of the images, sequential
// per-image jobs on warm containers, and parallel per-image pipelines
// (ColdStart before each job) — and compare with the BATCH baseline
// (single lambda, buffered batches, no model splitting). A final section
// moves batching from the tensor layer into the serving layer: the same
// Poisson request stream served request-at-a-time and then through the
// admission-side coalescer at the optimizer's co-planned batch size.
//
//	go run ./examples/batchserving
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"ampsinf/internal/baselines"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/serving"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const nImages = 20
	model, err := zoo.Build("mobilenet", 0)
	if err != nil {
		return err
	}
	weights := nn.InitWeights(model, 42)
	images := workload.Images(model, nImages, 3)

	// AMPS-Inf deployment with a tight SLO (larger memory, faster serving).
	fw := core.NewFramework(core.Options{})
	svc, err := fw.Submit(model, weights, core.SubmitOptions{
		SLO: 8 * time.Second, Deploy: coordinator.Config{SkipCompute: true},
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprintf(w, "AMPS-Inf: %d partition(s), memories %v MB\n\n", svc.Partitions(), svc.Plan.Memories())

	// One batched pass: the images stacked into one tensor, one job.
	stacked, err := tensor.Stack(images)
	if err != nil {
		return err
	}
	batched, err := svc.Infer(stacked)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s completion %7.2fs   cost $%.6f\n", "one batched pass:", batched.Completion.Seconds(), batched.Cost)

	// One job per image: sequentially on warm containers (completion is
	// the sum), then as parallel pipelines, each on fresh containers since
	// concurrent jobs cannot share one (completion is the slowest job).
	for _, parallel := range []bool{false, true} {
		var completion time.Duration
		var cost float64
		for _, img := range images {
			if parallel {
				svc.ColdStart()
			}
			rep, err := svc.Infer(img)
			if err != nil {
				return err
			}
			if parallel {
				completion = max(completion, rep.Completion)
			} else {
				completion += rep.Completion
			}
			cost += rep.Cost
		}
		label := "sequential jobs:"
		if parallel {
			label = "parallel pipelines:"
		}
		fmt.Fprintf(w, "%-22s completion %7.2fs   cost $%.6f\n", label, completion.Seconds(), cost)
	}
	fmt.Fprintln(w)

	// The BATCH baseline: one 2048 MB lambda, batches of 5, no splitting.
	o, err := optimizer.New(optimizer.Request{Model: model, Perf: perf.Default()})
	if err != nil {
		return err
	}
	sys, err := baselines.NewBATCH(core.NewFramework(core.Options{}),
		coordinator.Config{SkipCompute: true}, o, weights, 2048, 5)
	if err != nil {
		return err
	}
	defer sys.Close()
	rep, err := sys.Serve(images)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s completion %7.2fs   cost $%.6f   (%d buffered batches)\n\n",
		"BATCH baseline:", rep.Completion.Seconds(), rep.Cost, rep.Batches)

	// Serving-level batching: the scenarios above stack tensors before the
	// request ever reaches the deployment. The serving layer can instead
	// coalesce independently arriving requests at admission — a bounded
	// window gathers co-arriving requests into one invocation chain, and
	// the chain's exact cost is split back across the members. The
	// optimizer co-plans the batch size against each partition's memory
	// block and the SLO at Submit; MaxBatch -1 below asks for that size.
	opt := svc.BatchPlan.Option(svc.BatchPlan.Chosen)
	fmt.Fprintf(w, "co-planned batch size %d: $%.6f/request, %.2fs per batched pass\n",
		opt.Batch, opt.CostPerRequest, opt.EstTime.Seconds())

	serveStream := func(batch serving.BatchPolicy) (*serving.Report, error) {
		sfw := core.NewFramework(core.Options{})
		ssvc, err := sfw.Submit(model, weights, core.SubmitOptions{
			SLO: 8 * time.Second, Deploy: coordinator.Config{SkipCompute: true},
		})
		if err != nil {
			return nil, err
		}
		defer ssvc.Close()
		arrivals := workload.PoissonArrivals(nImages, 2.0, 7)
		return ssvc.Serve(images, arrivals, serving.Config{
			Throttle: serving.ThrottlePolicy{JitterSeed: 7},
			Batch:    batch,
		})
	}
	plain, err := serveStream(serving.BatchPolicy{MaxBatch: 1})
	if err != nil {
		return err
	}
	coal, err := serveStream(serving.BatchPolicy{MaxBatch: -1, Window: 2 * time.Second, JitterSeed: 7})
	if err != nil {
		return err
	}
	for _, s := range []struct {
		name string
		rep  *serving.Report
	}{{"request-at-a-time:", plain}, {"coalesced stream:", coal}} {
		fmt.Fprintf(w, "%-22s %.2f req/s   avg latency %6.2fs   cost $%.6f ($%.6f/req)\n",
			s.name, s.rep.Throughput, s.rep.AvgLatency.Seconds(), s.rep.TotalCost, s.rep.CostPerJob)
	}
	return nil
}
