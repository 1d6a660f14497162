package experiments

import (
	"fmt"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/serving"
	"ampsinf/internal/workload"
)

// ServingRow is one account-concurrency setting of the serving sweep.
type ServingRow struct {
	Limit        int
	Throughput   float64
	AvgLatency   time.Duration
	P99Latency   time.Duration
	MaxQueue     time.Duration
	Throttles    int
	ColdStarts   int
	PeakInFlight int
	Cost         float64
	CostPerJob   float64
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
		dep, err := coordinator.Deploy(env.timingOnly("serving"), m, w, plan)
		if err != nil {
			return nil, err
		}
		env.Platform.SetAccountConcurrency(limit)
		rep, err := serving.Serve(serving.Config{
			Deployment: dep,
			Throttle:   serving.ThrottlePolicy{JitterSeed: seed},
			Metrics:    currentMetrics(),
		}, inputs, arrivals)
		if err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("limit %d: %w", limit, err)
		}
		res.Rows = append(res.Rows, ServingRow{
			Limit:        env.Platform.AccountConcurrency(),
			Throughput:   rep.Throughput,
			AvgLatency:   rep.AvgLatency,
			P99Latency:   rep.P99Latency,
			MaxQueue:     rep.MaxQueue,
			Throttles:    rep.Throttles,
			ColdStarts:   rep.ColdStarts,
			PeakInFlight: rep.PeakInFlight,
			Cost:         rep.TotalCost,
			CostPerJob:   rep.CostPerJob,
		})
		dep.Teardown()
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
			usd(row.Cost), fmt.Sprintf("%.6f", row.CostPerJob),
		})
	}
	t.Notes = append(t.Notes,
		"tight limits trade latency (queueing + throttle backoff) for warm-container reuse: fewer cold starts, cheaper requests",
		"same seed ⇒ identical arrivals, throttles and dollars on every run")
	return t
}
