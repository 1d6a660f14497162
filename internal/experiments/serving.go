package experiments

import (
	"fmt"

	"ampsinf/internal/serving"
	"ampsinf/internal/workload"
)

// ServingRow is one account-concurrency setting of the serving sweep
// and the report of the trace served under it.
type ServingRow struct {
	Limit int
	*serving.Report
}

// ServingResult reports the cold-start-vs-concurrency trade-off: the
// same Poisson trace served under progressively tighter account
// concurrency limits. Wide limits fan requests out across fresh
// containers (fast, but every container pays its cold start); tight
// limits queue and throttle requests onto a small warm pool (slower,
// but cheaper per request through container reuse).
type ServingResult struct {
	ModelName string
	Jobs      int
	Rate      float64
	Seed      int64
	Rows      []ServingRow
}

// ServingSeed drives the arrival trace and the throttle backoff jitter;
// one seed makes the whole sweep bit-for-bit reproducible.
const ServingSeed = 2021

// RunServingScaling sweeps the account concurrency limit on a MobileNet
// pipeline serving one fixed Poisson trace. Every setting runs in a
// fresh environment with the same trace and seeds, so the only variable
// is the limit; the first row (the 2020 platform default of 1000) is
// effectively unlimited for this trace.
func RunServingScaling() (*ServingResult, error) {
	return runServingScaling("mobilenet", 40, 0.5, ServingSeed,
		[]int{0, 6, 5, 4})
}

func runServingScaling(name string, jobs int, rate float64, seed int64, limits []int) (*ServingResult, error) {
	m, w := Model(name)
	o, err := optimizerFor(name)
	if err != nil {
		return nil, err
	}
	plan, err := o.OptimizeCostOnly()
	if err != nil {
		return nil, err
	}
	arrivals := workload.PoissonArrivals(jobs, rate, seed)
	inputs := workload.Images(m, jobs, seed)
	res := &ServingResult{ModelName: name, Jobs: jobs, Rate: rate, Seed: seed}
	for _, limit := range limits {
		env := NewEnv(nil)
		svc, err := env.Deploy(m, w, plan, timingOnly("serving"))
		if err != nil {
			return nil, err
		}
		env.Platform().SetAccountConcurrency(limit)
		rep, err := svc.Serve(inputs, arrivals, serving.Config{
			Throttle: serving.ThrottlePolicy{JitterSeed: seed},
		})
		svc.Close()
		if err != nil {
			return nil, fmt.Errorf("limit %d: %w", limit, err)
		}
		res.Rows = append(res.Rows, ServingRow{Limit: env.Platform().AccountConcurrency(), Report: rep})
	}
	return res, nil
}

// Table renders the serving sweep.
func (r *ServingResult) Table() *Table {
	t := &Table{
		ID: "ServingScaling",
		Title: fmt.Sprintf("Cold starts vs concurrency: %s × %d Poisson requests at %.1f req/s under account limits (seed %d)",
			r.ModelName, r.Jobs, r.Rate, r.Seed),
		Columns: []string{"Limit", "Thpt (req/s)", "Avg lat (s)", "p99 lat (s)", "Max queue (s)", "Throttles", "Cold starts", "Peak", "Cost ($)", "$/req"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Limit),
			fmt.Sprintf("%.3f", row.Throughput),
			secs(row.AvgLatency), secs(row.P99Latency), secs(row.MaxQueue),
			fmt.Sprintf("%d", row.Throttles), fmt.Sprintf("%d", row.ColdStarts),
			fmt.Sprintf("%d", row.PeakInFlight),
			usd(row.TotalCost), fmt.Sprintf("%.6f", row.CostPerJob),
		})
	}
	t.Notes = append(t.Notes,
		"tight limits trade latency (queueing + throttle backoff) for warm-container reuse: fewer cold starts, cheaper requests",
		"same seed ⇒ identical arrivals, throttles and dollars on every run")
	return t
}
