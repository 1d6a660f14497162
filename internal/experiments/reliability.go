package experiments

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/workload"
)

// ReliabilityRow is one fault-rate setting of the reliability sweep.
type ReliabilityRow struct {
	Rate       float64
	Completion time.Duration // summed over all jobs
	Cost       float64
	Retries    int
	Faults     int
	Backoff    time.Duration
	// Inflation vs the fault-free row of the same sweep.
	CostInflation float64
	TimeInflation float64
}

// ReliabilityResult reports cost/completion inflation under injected
// platform faults — the dimension the paper's cost story ignores:
// retries bill GB-seconds and S3 requests too, so faults cost money
// even when every job still completes.
type ReliabilityResult struct {
	ModelName string
	Jobs      int
	Seed      int64
	Rows      []ReliabilityRow
}

// ReliabilitySeed drives both the injector and the retry jitter; one
// seed makes the whole sweep bit-for-bit reproducible.
const ReliabilitySeed = 2021

// RunReliability sweeps the overall fault rate on a MobileNet pipeline
// serving a fixed batch of jobs under the default retry policy. Every
// setting runs in a fresh environment with the same seeds, so the only
// variable is the fault rate; the fault-free row reproduces the
// unperturbed pipeline exactly.
func RunReliability() (*ReliabilityResult, error) {
	return runReliability("mobilenet", 20, ReliabilitySeed,
		[]float64{0, 0.02, 0.05, 0.10, 0.20})
}

func runReliability(name string, jobs int, seed int64, rates []float64) (*ReliabilityResult, error) {
	m, w := Model(name)
	o, err := optimizerFor(name)
	if err != nil {
		return nil, err
	}
	plan, err := o.OptimizeCostOnly()
	if err != nil {
		return nil, err
	}
	res := &ReliabilityResult{ModelName: name, Jobs: jobs, Seed: seed}
	for _, rate := range rates {
		dcfg := timingOnly("reliability")
		dcfg.Retry = coordinator.DefaultRetryPolicy()
		dcfg.Retry.MaxAttempts = 8 // survive bursts at the top of the sweep
		dcfg.Retry.JitterSeed = seed
		svc, err := NewEnv(faults.New(faults.Uniform(rate, seed))).Deploy(m, w, plan, dcfg)
		if err != nil {
			return nil, err
		}
		row := ReliabilityRow{Rate: rate}
		for j := 0; j < jobs; j++ {
			rep, err := svc.Infer(workload.Image(m, int64(j)))
			if err != nil {
				svc.Close()
				return nil, fmt.Errorf("rate %.2f job %d: %w", rate, j, err)
			}
			row.Completion += rep.Completion
			row.Cost += rep.Cost
			row.Retries += rep.Retries
			row.Faults += rep.FaultsInjected
			row.Backoff += rep.BackoffWait
		}
		svc.Close()
		res.Rows = append(res.Rows, row)
	}
	base := res.Rows[0]
	for i := range res.Rows {
		res.Rows[i].CostInflation = ratio(res.Rows[i].Cost, base.Cost) - 1
		res.Rows[i].TimeInflation = ratio(float64(res.Rows[i].Completion), float64(base.Completion)) - 1
	}
	return res, nil
}

// Table renders the reliability sweep.
func (r *ReliabilityResult) Table() *Table {
	t := &Table{
		ID: "Reliability",
		Title: fmt.Sprintf("Cost of faults: %s × %d jobs under injected throttles/crashes/timeouts/S3 errors (seed %d)",
			r.ModelName, r.Jobs, r.Seed),
		Columns: []string{"Fault rate", "Time (s)", "Cost ($)", "Retries", "Faults", "Backoff (s)", "Cost infl.", "Time infl."},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			pct(row.Rate), secs(row.Completion), usd(row.Cost),
			fmt.Sprintf("%d", row.Retries), fmt.Sprintf("%d", row.Faults),
			secs(row.Backoff), pct(row.CostInflation), pct(row.TimeInflation),
		})
	}
	t.Notes = append(t.Notes,
		"retries re-bill GB-seconds, invocations and S3 requests: faults inflate cost, not just latency",
		"same seed ⇒ identical faults, retries and dollars on every run")
	return t
}
