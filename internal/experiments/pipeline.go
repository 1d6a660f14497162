package experiments

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
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

// PipelineRow is one ladder cell's outcome.
type PipelineRow struct {
	Cell          PipelineCell
	Throughput    float64
	AvgLatency    time.Duration
	P99Latency    time.Duration
	Completed     int
	Good          int // completed within the common deadline
	ColdStarts    int
	Cost          float64
	CostPerJob    float64
	GoodPerDollar float64
	// TraceCost and MeterCost pin the cost-attribution identity for the
	// chaos test: the span-tree replay must reproduce the meter total.
	TraceCost float64
	MeterCost float64
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
	FaultRate float64
	Deadline  time.Duration
	Rows      []PipelineRow
}

// RunPipelineBatch runs the ladder on the serving-scaling trace (same
// model, arrivals and seed), fault-free. Unlike the serving sweep —
// whose cost-optimal MobileNet plan is a single partition — the ladder
// caps partitions at 12 layers so the deployment has real stages to
// pipeline across, and derives the account limit from the plan width.
func RunPipelineBatch() (*PipelineBatchResult, error) {
	return runPipelineBatch("mobilenet", 40, 0.5, ServingSeed, 0, 0)
}

// runPipelineBatch runs the ladder; limit 0 derives the account limit
// as 2× the plan's partition width (admission reserves a job's full
// width, so the limit holds concurrent whole-job fan-outs to two while
// staged jobs, occupying one container each, can go depth-wide).
func runPipelineBatch(name string, jobs int, rate float64, seed int64, limit int, faultRate float64) (*PipelineBatchResult, error) {
	return runPipelineBatchCap(name, jobs, rate, seed, limit, faultRate, 12)
}

func runPipelineBatchCap(name string, jobs int, rate float64, seed int64, limit int, faultRate float64, layerCap int) (*PipelineBatchResult, error) {
	m, w := Model(name)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: layerCap,
	})
	if err != nil {
		return nil, err
	}
	if limit <= 0 {
		limit = 2 * len(plan.Lambdas)
	}

	// Calibrate the common goodput deadline from one clean sequential
	// completion. Staged jobs run their partition chain serially (the
	// overlap is across requests, not within one), so the sequential
	// chain — not the intra-job-overlapped eager one — is the right
	// yardstick; 3× covers cold starts, batch-window waits and queueing.
	probeEnv := NewEnv()
	probeDep, err := coordinator.Deploy(coordinator.Config{
		Platform: probeEnv.Platform, Store: probeEnv.Store,
		NamePrefix: "pipeline", SkipCompute: true,
	}, m, w, plan)
	if err != nil {
		return nil, err
	}
	probe, err := probeDep.RunSequential(workload.Image(m, 0))
	if err != nil {
		probeDep.Teardown()
		return nil, fmt.Errorf("deadline probe: %w", err)
	}
	probeDep.Teardown()
	deadline := 3 * probe.Completion

	arrivals := workload.PoissonArrivals(jobs, rate, seed)
	inputs := workload.Images(m, jobs, seed)
	res := &PipelineBatchResult{
		ModelName: name, Jobs: jobs, Rate: rate, Seed: seed,
		Limit: limit, FaultRate: faultRate, Deadline: deadline,
	}
	for _, cell := range PipelineLadder {
		env := NewEnv()
		tracer := obs.NewTracer()
		env.Meter.SetObserver(tracer.RecordCost)
		dcfg := coordinator.Config{
			Platform: env.Platform, Store: env.Store,
			NamePrefix: "pipeline", SkipCompute: true,
			Tracer: tracer,
		}
		if faultRate > 0 {
			fcfg := faults.Uniform(faultRate, seed)
			fcfg.BurstEvery = 20 * time.Second
			fcfg.BurstFactor = 8
			env.InstallFaults(faults.New(fcfg))
			retry := coordinator.DefaultRetryPolicy()
			retry.MaxAttempts = 8
			retry.JitterSeed = seed
			dcfg.Retry = retry
		}
		env.Platform.SetAccountConcurrency(limit)
		dep, err := coordinator.Deploy(dcfg, m, w, plan)
		if err != nil {
			return nil, err
		}
		rep, err := serving.Serve(serving.Config{
			Deployment: dep,
			Throttle:   serving.ThrottlePolicy{JitterSeed: seed},
			SLO:        serving.SLOPolicy{Deadline: deadline, TolerateFailures: true},
			Pipeline:   serving.PipelinePolicy{Depth: cell.Depth},
			Batch:      serving.BatchPolicy{MaxBatch: cell.Batch, Window: 4 * time.Second, JitterSeed: seed},
			Metrics:    currentMetrics(),
		}, inputs, arrivals)
		if err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("cell %s: %w", cell.Name, err)
		}
		row := PipelineRow{
			Cell:       cell,
			Throughput: rep.Throughput,
			AvgLatency: rep.AvgLatency,
			P99Latency: rep.P99Latency,
			Completed:  rep.Completed,
			Good:       rep.Good,
			ColdStarts: rep.ColdStarts,
			Cost:       rep.TotalCost,
			CostPerJob: rep.CostPerJob,
			TraceCost:  obs.SumCostsAll(rep.Traces()),
			MeterCost:  env.Meter.Total(),
		}
		if rep.TotalCost > 0 {
			row.GoodPerDollar = float64(rep.Good) / rep.TotalCost
		}
		res.Rows = append(res.Rows, row)
		dep.Teardown()
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
			usd(row.Cost), fmt.Sprintf("%.6f", row.CostPerJob),
			fmt.Sprintf("%.0f", row.GoodPerDollar),
		})
	}
	t.Notes = append(t.Notes,
		"pipelining overlaps successive requests across partition stages on warm containers; batching shares one invocation chain across coalesced requests",
		"batched rows trade coalescing-window latency for fewer invocation chains (lower $/req); the combined row banks both effects",
		"same seed ⇒ identical arrivals, coalescing windows and dollars on every run")
	return t
}
