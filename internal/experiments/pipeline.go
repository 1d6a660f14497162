package experiments

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/serving"
	"ampsinf/internal/workload"
)

// PipelineCell is one rung of the pipelining × batching ladder.
type PipelineCell struct {
	Name  string
	Depth int // pipeline depth (0 = sequential admission)
	Batch int // max batch size (0 = one request per invocation)
}

// PipelineLadder is the fixed ladder: the whole-job executor, each
// mechanism alone, and both together.
var PipelineLadder = []PipelineCell{
	{Name: "sequential"},
	{Name: "pipelined", Depth: 4},
	{Name: "batched", Batch: 4},
	{Name: "pipelined+batched", Depth: 4, Batch: 4},
}

// PipelineRow is one ladder cell and the report of the trace it served;
// the report's Good counts completions within the common deadline.
type PipelineRow struct {
	Cell PipelineCell
	*serving.Report
	GoodPerDollar float64
}

// PipelineBatchResult reports what pipelined partition execution and
// admission batching buy on the serving-scaling trace: pipelining
// overlaps partition i of request n with partition i+1 of request n−1
// to lift throughput under a tight account limit, batching shares one
// invocation chain across coalesced requests to cut the per-request
// bill, and together they trade a bounded queueing delay for both.
type PipelineBatchResult struct {
	ModelName string
	Jobs      int
	Rate      float64
	Seed      int64
	Limit     int
	Deadline  time.Duration
	Rows      []PipelineRow
}

// RunPipelineBatch runs the ladder on the serving-scaling trace (same
// model, arrivals and seed), fault-free. Unlike the serving sweep —
// whose cost-optimal MobileNet plan is a single partition — the ladder
// caps partitions at 12 layers so the deployment has real stages to
// pipeline across, and derives the account limit from the plan width.
func RunPipelineBatch() (*PipelineBatchResult, error) {
	return runPipelineBatch("mobilenet", 40, 0.5, ServingSeed, 0)
}

// runPipelineBatch runs the ladder with partitions capped at 12 layers.
func runPipelineBatch(name string, jobs int, rate float64, seed int64, faultRate float64) (*PipelineBatchResult, error) {
	return runPipelineBatchCap(name, jobs, rate, seed, faultRate, 12)
}

// runPipelineBatchCap runs the ladder with partitions capped at layerCap
// layers. The account limit is 2× the plan's partition width: admission
// reserves a job's full width, so the limit holds concurrent whole-job
// fan-outs to two while staged jobs, occupying one container each, can
// go depth-wide.
func runPipelineBatchCap(name string, jobs int, rate float64, seed int64, faultRate float64, layerCap int) (*PipelineBatchResult, error) {
	m, w := Model(name)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: layerCap,
	})
	if err != nil {
		return nil, err
	}
	limit := 2 * len(plan.Lambdas)

	// Calibrate the common goodput deadline from one clean sequential
	// completion. Staged jobs run their partition chain serially (the
	// overlap is across requests, not within one), so the sequential
	// chain — not the intra-job-overlapped eager one — is the right
	// yardstick; 3× covers cold starts, batch-window waits and queueing.
	probe, err := NewEnv(nil).runOne(timingOnly("pipeline"), name, plan, coordinator.RunOptions{Sequential: true})
	if err != nil {
		return nil, fmt.Errorf("deadline probe: %w", err)
	}
	deadline := 3 * probe.Completion

	arrivals := workload.PoissonArrivals(jobs, rate, seed)
	inputs := workload.Images(m, jobs, seed)
	res := &PipelineBatchResult{
		ModelName: name, Jobs: jobs, Rate: rate, Seed: seed,
		Limit: limit, Deadline: deadline,
	}
	for _, cell := range PipelineLadder {
		var inj *faults.Injector
		if faultRate > 0 {
			fcfg := faults.Uniform(faultRate, seed)
			fcfg.BurstEvery = 20 * time.Second
			fcfg.BurstFactor = 8
			inj = faults.New(fcfg)
		}
		env := NewEnv(inj)
		dcfg := timingOnly("pipeline")
		if inj != nil {
			dcfg.Retry = coordinator.DefaultRetryPolicy()
			dcfg.Retry.MaxAttempts = 8
			dcfg.Retry.JitterSeed = seed
		}
		env.Platform().SetAccountConcurrency(limit)
		svc, err := env.Deploy(m, w, plan, dcfg)
		if err != nil {
			return nil, err
		}
		rep, err := svc.Serve(inputs, arrivals, serving.Config{
			Throttle: serving.ThrottlePolicy{JitterSeed: seed},
			SLO:      serving.SLOPolicy{Deadline: deadline, TolerateFailures: true},
			Pipeline: serving.PipelinePolicy{Depth: cell.Depth},
			Batch:    serving.BatchPolicy{MaxBatch: cell.Batch, Window: 4 * time.Second, JitterSeed: seed},
		})
		svc.Close()
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell.Name, err)
		}
		row := PipelineRow{Cell: cell, Report: rep}
		if rep.TotalCost > 0 {
			row.GoodPerDollar = float64(rep.Good) / rep.TotalCost
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the pipelining × batching ladder.
func (r *PipelineBatchResult) Table() *Table {
	t := &Table{
		ID: "PipelineBatch",
		Title: fmt.Sprintf("Pipelining × batching: %s × %d Poisson requests at %.1f req/s, account limit %d, deadline %s (seed %d)",
			r.ModelName, r.Jobs, r.Rate, r.Limit, secs(r.Deadline)+"s", r.Seed),
		Columns: []string{"Scheduler", "Depth", "Batch", "Thpt (req/s)", "Avg lat (s)", "p99 lat (s)", "Good", "Cold starts", "Cost ($)", "$/req", "Good/$"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Cell.Name,
			fmt.Sprintf("%d", row.Cell.Depth), fmt.Sprintf("%d", row.Cell.Batch),
			fmt.Sprintf("%.3f", row.Throughput),
			secs(row.AvgLatency), secs(row.P99Latency),
			fmt.Sprintf("%d/%d", row.Good, r.Jobs),
			fmt.Sprintf("%d", row.ColdStarts),
			usd(row.TotalCost), fmt.Sprintf("%.6f", row.CostPerJob),
			fmt.Sprintf("%.0f", row.GoodPerDollar),
		})
	}
	t.Notes = append(t.Notes,
		"pipelining overlaps successive requests across partition stages on warm containers; batching shares one invocation chain across coalesced requests",
		"batched rows trade coalescing-window latency for fewer invocation chains (lower $/req); the combined row banks both effects",
		"same seed ⇒ identical arrivals, coalescing windows and dollars on every run")
	return t
}
