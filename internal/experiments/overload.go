package experiments

import (
	"fmt"
	"sort"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/serving"
	"ampsinf/internal/workload"
)

// OverloadSeed drives the arrivals, the fault and outage schedules and
// every jitter stream of the overload experiment.
const OverloadSeed = 2027

// OverloadPolicy is one column of the overload comparison.
type OverloadPolicy struct {
	Name string
	// Full enables the whole protection stack: deadline propagation +
	// SLO shedding, hedging, breakers, the global retry budget, the
	// brownout ladder and the quantized fallback plan. False is the
	// naive baseline: unbudgeted retries and nothing else.
	Full bool
}

// OverloadRow is one policy's phase-split outcome.
type OverloadRow struct {
	Policy string
	// Goodput (deadline-meeting completions per second) in the phase
	// before the domain outage, during it, and in the equally long
	// recovery window right after it.
	PreGoodput   float64
	StormGoodput float64
	PostGoodput  float64
	// Recovery is PostGoodput / PreGoodput — the fraction of pre-storm
	// goodput restored within the bounded recovery window.
	Recovery     float64
	Good         int
	Failed       int // deadline + throttled + budget-exhausted + other failures
	Shed         int // SLO shed + brownout hard-shed
	Cost         float64
	WastedSpend  float64
	BudgetDenied int
	Deepest      int // deepest brownout level reached
}

// OverloadResult compares naive retrying against the full
// budget+brownout stack through a whole-domain outage storm.
type OverloadResult struct {
	ModelName  string
	Jobs       int
	Rate       float64
	Seed       int64
	Deadline   time.Duration
	StormStart time.Duration
	StormEnd   time.Duration
	Domain     int
	Rows       []OverloadRow
}

// RunOverload serves one fixed trace — a base Poisson stream plus a
// flash-crowd surge co-timed with a whole-domain outage — under two
// policies. Naive retrying goes metastable: a third of the fleet is
// down, demand exceeds the surviving capacity, and its patient
// unbudgeted retries keep every queued request alive, so the backlog
// outlasts the storm and post-storm goodput stays collapsed (requests
// complete, but too late to count). The full stack spends its retry
// budget, browns out (hedges off, wider batches, quantized fallback,
// hard shed) and walks back up once windows recover — restoring
// pre-storm goodput within one storm-length of the outage ending.
func RunOverload() (*OverloadResult, error) {
	const (
		name = "mobilenet"
		jobs = 210
		rate = 0.7 // ~65% of the 7-slot account's capacity: comfortable
		// surgeRate arrives on top of the base rate for the length of the
		// domain outage: a flash crowd landing exactly when a third of the
		// fleet is down. Base + surge exceeds capacity, so whether the
		// backlog stays bounded is purely a policy question.
		surgeRate = 3.0
		seed      = OverloadSeed
	)
	m, w := Model(name)
	o, err := optimizerFor(name)
	if err != nil {
		return nil, err
	}
	plan, err := o.OptimizeCostOnly()
	if err != nil {
		return nil, err
	}

	// Calibrate the common deadline from one clean warm completion, as
	// the resilience sweep does.
	probeEnv := NewEnv()
	probeDep, err := coordinator.Deploy(coordinator.Config{
		Platform: probeEnv.Platform, Store: probeEnv.Store,
		NamePrefix: "overload", SkipCompute: true,
	}, m, w, plan)
	if err != nil {
		return nil, err
	}
	probe, err := probeDep.RunEager(workload.Image(m, 0))
	if err != nil {
		probeDep.Teardown()
		return nil, fmt.Errorf("deadline probe: %w", err)
	}
	probeDep.Teardown()
	deadline := 2 * probe.Completion

	base := workload.PoissonArrivals(jobs, rate, seed)
	traceEnd := base[len(base)-1]

	faultCfg := faults.Uniform(0.06, seed)
	faultCfg.Domains = 3
	faultCfg.DomainOutageEvery = 250 * time.Second
	faultCfg.DomainOutageLength = 60 * time.Second

	// The outage schedule comes from its own derived stream, so one
	// probe injector reveals the storm placement both cells will see.
	var storm faults.DomainOutageWindow
	found := false
	for _, ow := range faults.New(faultCfg).DomainOutages(traceEnd) {
		if ow.End < traceEnd {
			storm = ow
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("overload: no domain outage inside the %v trace", traceEnd)
	}

	// Overlay the flash crowd on the outage window: surge arrivals are a
	// second seeded Poisson stream shifted to the storm start and clipped
	// to the window, then merged into one sorted trace.
	stormLen := storm.End - storm.Start
	surgeN := int(surgeRate*stormLen.Seconds()) * 2
	arrivals := append([]time.Duration(nil), base...)
	for _, a := range workload.PoissonArrivals(surgeN, surgeRate, seed+1) {
		if at := storm.Start + a; at < storm.End {
			arrivals = append(arrivals, at)
		}
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	inputs := workload.Images(m, len(arrivals), seed)

	res := &OverloadResult{
		ModelName: name, Jobs: len(arrivals), Rate: rate, Seed: seed, Deadline: deadline,
		StormStart: storm.Start, StormEnd: storm.End, Domain: storm.Domain,
	}

	for _, pol := range []OverloadPolicy{{Name: "naive-retry"}, {Name: "budget+brownout", Full: true}} {
		env := NewEnv()
		env.InstallFaults(faults.New(faultCfg))
		env.Platform.SetAccountConcurrency(7)

		retry := coordinator.DefaultRetryPolicy()
		retry.MaxAttempts = 8
		retry.JitterSeed = seed
		dcfg := coordinator.Config{
			Platform: env.Platform, Store: env.Store,
			NamePrefix: "overload", SkipCompute: true,
			Retry: retry, Metrics: currentMetrics(),
		}
		// The naive cell retries admission patiently — the posture that
		// turns a storm into a persistent backlog. The full stack keeps
		// the default (bounded) admission retries and shelters behind the
		// budget and the brownout ladder instead.
		throttle := serving.ThrottlePolicy{JitterSeed: seed}
		if !pol.Full {
			throttle = serving.ThrottlePolicy{
				MaxAttempts: 40, BaseBackoff: 500 * time.Millisecond,
				MaxBackoff: 8 * time.Second, JitterSeed: seed,
			}
		}
		scfg := serving.Config{
			Throttle: throttle,
			SLO:      serving.SLOPolicy{TolerateFailures: true},
			Metrics:  currentMetrics(),
		}
		var series *obs.TimeSeries
		if pol.Full {
			dcfg.Budget = coordinator.BudgetPolicy{MaxTokens: 12, EarnPerSuccess: 0.25}
			dcfg.Hedge = coordinator.HedgePolicy{
				Percentile: 99, Delay: probe.Completion * 5 / 4,
				MinSamples: 8, MaxRate: 0.25, JitterSeed: seed,
			}
			dcfg.Breaker = coordinator.BreakerPolicy{
				FailureRate: 0.8, MinSamples: 8,
				Window: 10 * time.Second, OpenFor: 2 * time.Second,
			}
			// The brownout controller judges 2 s windows of the run's own
			// series.
			series = obs.NewTimeSeries(2 * time.Second)
			dcfg.Series = series
			scfg.SLO = serving.SLOPolicy{Deadline: deadline, Shed: true, TolerateFailures: true}
			scfg.Series = series
			scfg.Brownout = serving.BrownoutPolicy{
				Enabled: true, P99: deadline, BadFraction: 0.25,
				StepUpAfter: 2, StepDownAfter: 3,
			}
		}
		dep, err := coordinator.Deploy(dcfg, m, w, plan)
		if err != nil {
			return nil, err
		}
		var fb *coordinator.Deployment
		if pol.Full {
			fcfg := dcfg
			fcfg.NamePrefix = "overload-fallback"
			fcfg.QuantizeBits = 4
			fb, err = coordinator.Deploy(fcfg, m, w, plan)
			if err != nil {
				dep.Teardown()
				return nil, err
			}
			scfg.Fallback = fb
		}
		scfg.Deployment = dep
		rep, err := serving.Serve(scfg, inputs, arrivals)
		if series != nil {
			series.Close()
		}
		if fb != nil {
			defer fb.Teardown()
		}
		defer dep.Teardown()
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.Name, err)
		}

		// Phase goodput: deadline-meeting completions whose response
		// landed in the phase, over the phase length. The recovery phase
		// is one storm-length long — the bounded window the acceptance
		// criterion allows for walking back up the ladder.
		preStart := storm.Start - stormLen
		if preStart < 0 {
			preStart = 0
		}
		phases := [3][2]time.Duration{
			{preStart, storm.Start},
			{storm.Start, storm.End},
			{storm.End, storm.End + stormLen},
		}
		var good [3]int
		totalGood := 0
		for _, jr := range rep.Jobs {
			if jr.Outcome != serving.OutcomeOK || jr.Latency > deadline {
				continue
			}
			totalGood++
			for i, ph := range phases {
				if jr.Done >= ph[0] && jr.Done < ph[1] {
					good[i]++
				}
			}
		}
		row := OverloadRow{
			Policy:       pol.Name,
			Good:         totalGood,
			Failed:       rep.Deadline + rep.Throttled + rep.Failed + rep.BudgetExhausted,
			Shed:         rep.Shed,
			Cost:         rep.TotalCost,
			WastedSpend:  rep.WastedSpend,
			BudgetDenied: rep.BudgetDenied,
			Deepest:      rep.BrownoutDeepest,
		}
		for i, ph := range phases {
			if sec := (ph[1] - ph[0]).Seconds(); sec > 0 {
				g := float64(good[i]) / sec
				switch i {
				case 0:
					row.PreGoodput = g
				case 1:
					row.StormGoodput = g
				case 2:
					row.PostGoodput = g
				}
			}
		}
		if row.PreGoodput > 0 {
			row.Recovery = row.PostGoodput / row.PreGoodput
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the overload comparison.
func (r *OverloadResult) Table() *Table {
	t := &Table{
		ID: "Overload",
		Title: fmt.Sprintf("Overload protection through a domain outage: %s × %d requests (%.1f req/s base + flash crowd during the storm), deadline %s, domain %d out %s–%s (seed %d)",
			r.ModelName, r.Jobs, r.Rate, r.Deadline.Round(time.Millisecond),
			r.Domain, r.StormStart.Round(time.Millisecond), r.StormEnd.Round(time.Millisecond), r.Seed),
		Columns: []string{"Policy", "Pre (req/s)", "Storm (req/s)", "Post (req/s)", "Recovery", "Good", "Fail", "Shed", "Cost ($)", "Wasted ($)", "Budget denied", "Deepest"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy,
			fmt.Sprintf("%.3f", row.PreGoodput),
			fmt.Sprintf("%.3f", row.StormGoodput),
			fmt.Sprintf("%.3f", row.PostGoodput),
			pct(row.Recovery),
			fmt.Sprintf("%d", row.Good), fmt.Sprintf("%d", row.Failed),
			fmt.Sprintf("%d", row.Shed),
			usd(row.Cost), usd(row.WastedSpend),
			fmt.Sprintf("%d", row.BudgetDenied),
			serving.BrownoutLevelName(row.Deepest),
		})
	}
	t.Notes = append(t.Notes,
		"recovery = post-storm goodput over pre-storm goodput, measured in a one-storm-length window after the domain returns",
		"naive retrying multiplies load on the surviving domains and stays depressed after the outage; the budget caps that amplification and brownout degrades instead of collapsing",
		"same seed ⇒ identical arrivals, outage schedule, budget spends and brownout transitions on every run")
	return t
}
