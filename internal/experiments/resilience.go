package experiments

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/serving"
	"ampsinf/internal/workload"
)

// ResiliencePolicy is one column of the tail-tolerance ablation: each
// step stacks one more mechanism on top of the previous one.
type ResiliencePolicy struct {
	Name     string
	Deadline bool // propagate the per-request deadline into the coordinator
	Hedge    bool // speculative duplicate invocations of slow partitions
	Breaker  bool // per-function circuit breakers
	Shed     bool // SLO-aware admission shedding
}

// ResiliencePolicies is the sweep's fixed policy ladder, naive retrying
// first and the full tail-tolerance stack last.
var ResiliencePolicies = []ResiliencePolicy{
	{Name: "naive-retry"},
	{Name: "+deadline", Deadline: true},
	{Name: "+hedge", Deadline: true, Hedge: true},
	{Name: "full-stack", Deadline: true, Hedge: true, Breaker: true, Shed: true},
}

// ResilienceRow is one (burst rate, policy) cell of the sweep.
type ResilienceRow struct {
	Rate          float64
	Policy        string
	Completed     int
	Good          int // completed within the common deadline
	Shed          int
	Failed        int // deadline + throttled + other terminal failures
	Goodput       float64
	P99           time.Duration // over completed requests
	Cost          float64
	CostPerGood   float64
	WastedSpend   float64
	GoodPerDollar float64
}

// ResilienceResult reports how each rung of the tail-tolerance ladder
// fares under correlated fault storms: naive retrying keeps paying for
// requests that can no longer answer in time, while deadlines, hedges,
// breakers and shedding convert that wasted spend back into goodput.
type ResilienceResult struct {
	ModelName string
	Jobs      int
	Rate      float64
	Seed      int64
	Deadline  time.Duration
	Rows      []ResilienceRow
}

// ResilienceSeed drives the arrivals, the fault injector, the storm
// schedule and every jitter stream; one seed makes the whole sweep
// bit-for-bit reproducible.
const ResilienceSeed = 2021

// RunResilience sweeps the base fault rate (with 20 s-mean correlated
// storms multiplying it 8×) across the four-policy ladder on a
// MobileNet pipeline serving one fixed Poisson trace.
func RunResilience() (*ResilienceResult, error) {
	return runResilience("mobilenet", 40, 0.5, ResilienceSeed,
		[]float64{0.05, 0.15, 0.30, 0.50})
}

func runResilience(name string, jobs int, rate float64, seed int64, faultRates []float64) (*ResilienceResult, error) {
	m, w := Model(name)
	o, err := optimizerFor(name)
	if err != nil {
		return nil, err
	}
	plan, err := o.OptimizeCostOnly()
	if err != nil {
		return nil, err
	}

	// Calibrate the common deadline from one clean warm completion:
	// generous enough that fault-free requests always make it (first
	// cold request included), tight enough that storm-tossed retry
	// chains blow through it.
	probe, err := NewEnv(nil).runOne(timingOnly("resilience"), name, plan, coordinator.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("deadline probe: %w", err)
	}
	deadline := 3 * probe.Completion

	arrivals := workload.PoissonArrivals(jobs, rate, seed)
	inputs := workload.Images(m, jobs, seed)
	res := &ResilienceResult{
		ModelName: name, Jobs: jobs, Rate: rate, Seed: seed, Deadline: deadline,
	}
	for _, fr := range faultRates {
		for _, pol := range ResiliencePolicies {
			fcfg := faults.Uniform(fr, seed)
			fcfg.BurstEvery = 20 * time.Second
			fcfg.BurstFactor = 8
			env := NewEnv(faults.New(fcfg))
			// A tight account limit is what makes storms dangerous:
			// timeout-hung containers pin concurrency slots, queues
			// build, and late requests are the expensive failure mode
			// the shedding/deadline machinery exists to prevent.
			env.Platform().SetAccountConcurrency(8)

			dcfg := timingOnly("resilience")
			dcfg.Retry = coordinator.DefaultRetryPolicy()
			dcfg.Retry.MaxAttempts = 8
			dcfg.Retry.JitterSeed = seed
			if pol.Hedge {
				// The fallback delay sits just above a cold attempt, so
				// until the percentile history warms up only genuinely
				// pathological attempts (timeout hangs) hedge.
				dcfg.Hedge = coordinator.HedgePolicy{
					Percentile: 99, Delay: probe.Completion * 5 / 4,
					MinSamples: 8, MaxRate: 0.25, JitterSeed: seed,
				}
			}
			if pol.Breaker {
				// Rate-only trigger tuned to genuine storms (where
				// nearly every invoke faults), not survivable streaks.
				dcfg.Breaker = coordinator.BreakerPolicy{
					FailureRate: 0.8, MinSamples: 8,
					Window: 10 * time.Second, OpenFor: 2 * time.Second,
				}
			}
			svc, err := env.Deploy(m, w, plan, dcfg)
			if err != nil {
				return nil, err
			}
			slo := serving.SLOPolicy{TolerateFailures: true, Shed: pol.Shed}
			if pol.Deadline {
				slo.Deadline = deadline
			}
			rep, err := svc.Serve(inputs, arrivals, serving.Config{
				Throttle: serving.ThrottlePolicy{JitterSeed: seed},
				SLO:      slo,
			})
			svc.Close()
			if err != nil {
				return nil, fmt.Errorf("rate %.2f policy %s: %w", fr, pol.Name, err)
			}
			// Judge every policy against the same deadline, whether or
			// not it enforced one: a completion slower than the common
			// deadline bought nothing useful.
			good := 0
			for _, jr := range rep.Jobs {
				if jr.Outcome == serving.OutcomeOK && jr.Latency <= deadline {
					good++
				}
			}
			row := ResilienceRow{
				Rate:        fr,
				Policy:      pol.Name,
				Completed:   rep.Completed,
				Good:        good,
				Shed:        rep.Shed,
				Failed:      rep.Deadline + rep.Throttled + rep.Failed,
				P99:         rep.P99Latency,
				Cost:        rep.TotalCost,
				WastedSpend: rep.WastedSpend,
			}
			if rep.Makespan > 0 {
				row.Goodput = float64(good) / rep.Makespan.Seconds()
			}
			if good > 0 {
				row.CostPerGood = rep.TotalCost / float64(good)
			}
			if rep.TotalCost > 0 {
				row.GoodPerDollar = float64(good) / rep.TotalCost
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Table renders the resilience sweep.
func (r *ResilienceResult) Table() *Table {
	t := &Table{
		ID: "Resilience",
		Title: fmt.Sprintf("Tail tolerance under fault storms: %s × %d Poisson requests at %.1f req/s, deadline %s (seed %d)",
			r.ModelName, r.Jobs, r.Rate, r.Deadline.Round(time.Millisecond), r.Seed),
		Columns: []string{"Fault rate", "Policy", "Good", "Done", "Shed", "Fail", "Goodput (req/s)", "p99 (s)", "Cost ($)", "$/good", "Wasted ($)", "Good/$"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			pct(row.Rate), row.Policy,
			fmt.Sprintf("%d", row.Good), fmt.Sprintf("%d", row.Completed),
			fmt.Sprintf("%d", row.Shed), fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%.3f", row.Goodput), secs(row.P99),
			usd(row.Cost), usd(row.CostPerGood), usd(row.WastedSpend),
			fmt.Sprintf("%.1f", row.GoodPerDollar),
		})
	}
	t.Notes = append(t.Notes,
		"each policy adds one mechanism: deadline propagation, then hedged invocations, then breakers + SLO shedding",
		"naive retrying keeps billing doomed requests; the full stack fails or sheds them fast and spends the dollars on answers",
		"same seed ⇒ identical arrivals, storms, hedges and dollars on every run")
	return t
}
