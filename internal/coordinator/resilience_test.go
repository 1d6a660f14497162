package coordinator

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// deployTinyResilient deploys the multi-partition TinyCNN pipeline with
// a tracer, a seeded fault injector (rate 0 = clean), and the given
// resilience knobs layered on the default resilient retry policy.
func deployTinyResilient(t *testing.T, rate float64, seed int64, mutate func(cfg *Config)) (*env, *Deployment, *nn.Model, nn.Weights) {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	e := newEnv()
	tr := obs.NewTracer()
	e.meter.SetObserver(tr.RecordCost)
	if rate > 0 {
		inj := faults.New(faults.Uniform(rate, seed))
		e.platform.SetInjector(inj)
		e.store.SetInjector(inj)
	}
	cfg := e.config()
	cfg.Tracer = tr
	cfg.Retry = resilientPolicy(seed)
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Teardown)
	return e, d, m, w
}

// Deploy must reject nonsensical resilience policies up front instead
// of silently substituting defaults at run time.
func TestDeployRejectsInvalidPolicies(t *testing.T) {
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	cases := []struct {
		name   string
		mutate func(cfg *Config)
	}{
		{"retry negative attempts", func(cfg *Config) { cfg.Retry = RetryPolicy{MaxAttempts: -1} }},
		{"hedge percentile > 100", func(cfg *Config) { cfg.Hedge = HedgePolicy{Percentile: 150} }},
		{"hedge NaN percentile", func(cfg *Config) { cfg.Hedge = HedgePolicy{Percentile: math.NaN()} }},
		{"hedge negative delay", func(cfg *Config) { cfg.Hedge = HedgePolicy{Delay: -time.Second} }},
		{"hedge rate > 1", func(cfg *Config) { cfg.Hedge = HedgePolicy{Delay: time.Second, MaxRate: 1.5} }},
		{"hedge NaN rate", func(cfg *Config) { cfg.Hedge = HedgePolicy{Delay: time.Second, MaxRate: math.NaN()} }},
		{"breaker rate > 1", func(cfg *Config) { cfg.Breaker = BreakerPolicy{FailureRate: 2} }},
		{"breaker NaN rate", func(cfg *Config) { cfg.Breaker = BreakerPolicy{FailureRate: math.NaN()} }},
		{"budget NaN max tokens", func(cfg *Config) { cfg.Budget = BudgetPolicy{MaxTokens: math.NaN()} }},
		{"budget NaN earn", func(cfg *Config) { cfg.Budget = BudgetPolicy{MaxTokens: 1, EarnPerSuccess: math.NaN()} }},
		{"breaker negative window", func(cfg *Config) { cfg.Breaker = BreakerPolicy{ConsecutiveFailures: 3, Window: -time.Second} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv()
			cfg := e.config()
			tc.mutate(&cfg)
			if _, err := Deploy(cfg, m, w, plan); err == nil {
				t.Fatalf("Deploy accepted invalid config (%s)", tc.name)
			}
		})
	}
}

// MinSamples above the history size could never be met — the ring's
// size saturates at latencyHistorySize — so Validate names the limit
// instead of leaving percentile hedging silently off.
func TestHedgePolicyValidateMinSamples(t *testing.T) {
	for _, tc := range []struct {
		min int
		ok  bool
	}{
		{-1, false}, {0, true}, {3, true}, {latencyHistorySize, true}, {latencyHistorySize + 1, false}, {100, false},
	} {
		err := HedgePolicy{Percentile: 95, MinSamples: tc.min}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("MinSamples %d: Validate() = %v, want ok=%v", tc.min, err, tc.ok)
		}
		if tc.min > latencyHistorySize && (err == nil || !strings.Contains(err.Error(), fmt.Sprint(latencyHistorySize))) {
			t.Errorf("MinSamples %d: error %v does not name the %d-sample limit", tc.min, err, latencyHistorySize)
		}
	}
}

// An impossibly tight deadline fails the job fast — before invoking
// anything that cannot finish in time — with the typed error, and the
// failed report still carries a trace with its exact charges.
func TestDeadlineFailsFastTyped(t *testing.T) {
	_, d, m, _ := deployTinyResilient(t, 0, 0, nil)
	rep, err := d.Run(randomInput(m, 1), RunOptions{Sequential: true, Deadline: time.Microsecond})
	if err == nil {
		t.Fatal("1µs deadline did not fail the job")
	}
	if !IsDeadlineExceeded(err) {
		t.Fatalf("error not classified as deadline exceeded: %v", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error chain missing *DeadlineError: %v", err)
	}
	if de.Op == "" || de.Deadline != time.Microsecond {
		t.Fatalf("typed error incomplete: %+v", de)
	}
	if rep == nil || rep.Trace == nil {
		t.Fatal("failed job must still return a report with a trace")
	}
}

// Under faults, a deadline sized to the clean completion aborts jobs
// whose retries would blow the budget — with the triggering fault
// preserved as the DeadlineError's cause — instead of retrying blind.
func TestDeadlineBoundsRetries(t *testing.T) {
	_, dc, m, _ := deployTinyResilient(t, 0, 0, nil)
	clean, err := dc.RunSequential(randomInput(m, 1))
	if err != nil {
		t.Fatal(err)
	}

	_, d, m2, _ := deployTinyResilient(t, 0.5, 321, nil)
	var de *DeadlineError
	for j := 0; j < 25 && de == nil; j++ {
		rep, err := d.Run(randomInput(m2, int64(j)), RunOptions{Sequential: true, Deadline: clean.Completion})
		if err != nil {
			if !IsDeadlineExceeded(err) {
				continue // other terminal failures (gave up, non-transient) are fine
			}
			if !errors.As(err, &de) {
				t.Fatalf("deadline failure without typed error: %v", err)
			}
			if rep == nil || rep.Trace == nil {
				t.Fatal("deadline failure must return a report with a trace")
			}
		}
	}
	if de == nil {
		t.Fatal("50% fault rate never hit the clean-completion deadline")
	}
	if de.Elapsed <= 0 {
		t.Fatalf("DeadlineError lost its elapsed time: %+v", de)
	}
}

// A deadline the job can always meet changes nothing: completions and
// costs are byte-identical to the unbounded run, fault for fault.
func TestGenerousDeadlineIsByteIdentical(t *testing.T) {
	type summary struct {
		completion time.Duration
		cost       float64
		retries    int
	}
	sweep := func(deadline time.Duration) []summary {
		_, d, m, _ := deployTinyResilient(t, 0.25, 777, nil)
		var out []summary
		for j := 0; j < 6; j++ {
			rep, err := d.Run(randomInput(m, int64(j)), RunOptions{Deadline: deadline})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, summary{rep.Completion, rep.Cost, rep.Retries})
		}
		return out
	}
	a, b := sweep(0), sweep(time.Hour)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("job %d diverged under a generous deadline:\n%+v\n%+v", j, a[j], b[j])
		}
	}
}

// Hedging launches speculative duplicates, keeps predictions bit-exact,
// replays deterministically, and the span tree still reproduces every
// dollar — including the cancelled losers' settlements.
func TestHedgingDeterministicAndCostExact(t *testing.T) {
	hedged := func(cfg *Config) {
		cfg.Hedge = HedgePolicy{Delay: time.Millisecond, MaxRate: 1, JitterSeed: 9}
	}
	for _, mode := range []string{"sequential", "eager"} {
		t.Run(mode, func(t *testing.T) {
			sweep := func() ([]*Report, *Deployment, *nn.Model, nn.Weights) {
				_, d, m, w := deployTinyResilient(t, 0.3, 4242, hedged)
				var reps []*Report
				for j := 0; j < 8; j++ {
					var rep *Report
					var err error
					if mode == "eager" {
						rep, err = d.RunEager(randomInput(m, int64(j)))
					} else {
						rep, err = d.RunSequential(randomInput(m, int64(j)))
					}
					if err != nil {
						t.Fatalf("job %d: %v", j, err)
					}
					reps = append(reps, rep)
				}
				return reps, d, m, w
			}
			reps, _, m, w := sweep()
			totalHedges, totalWins := 0, 0
			for j, rep := range reps {
				want, _ := m.Forward(w, randomInput(m, int64(j)))
				if !tensor.AllClose(want, rep.Output, 0) {
					t.Fatalf("%s job %d: prediction wrong under hedging", mode, j)
				}
				checkTraceInvariants(t, rep, j == 0)
				totalHedges += rep.Hedges
				totalWins += rep.HedgeWins
				if rep.Hedges > 0 && rep.WastedSpend <= 0 {
					t.Fatalf("%s job %d hedged %d times but recorded no wasted spend", mode, j, rep.Hedges)
				}
			}
			if totalHedges == 0 {
				t.Fatalf("%s: 1ms hedge delay never launched a hedge", mode)
			}
			reps2, _, _, _ := sweep()
			for j := range reps {
				if reps[j].Completion != reps2[j].Completion || reps[j].Cost != reps2[j].Cost ||
					reps[j].Hedges != reps2[j].Hedges || reps[j].HedgeWins != reps2[j].HedgeWins {
					t.Fatalf("%s job %d diverged across identical hedged runs", mode, j)
				}
			}
			t.Logf("%s: %d hedges, %d wins", mode, totalHedges, totalWins)
		})
	}
}

// The deployment-wide rate cap bounds hedges to MaxRate of primary
// attempts, so speculation cannot double the bill.
func TestHedgeRateCap(t *testing.T) {
	_, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) {
		cfg.Hedge = HedgePolicy{Delay: time.Nanosecond, MaxRate: 0.25, JitterSeed: 3}
	})
	for j := 0; j < 12; j++ {
		if _, err := d.RunEager(randomInput(m, int64(j))); err != nil {
			t.Fatal(err)
		}
	}
	d.retryMu.Lock()
	invokes, hedges := d.invokesTotal, d.hedgesTotal
	d.retryMu.Unlock()
	if invokes == 0 {
		t.Fatal("no primary invocations counted")
	}
	if hedges == 0 {
		t.Fatal("1ns hedge delay under a 25% cap never hedged at all")
	}
	if float64(hedges) > 0.25*float64(invokes)+1 {
		t.Fatalf("hedge cap breached: %d hedges for %d invokes (cap 25%%)", hedges, invokes)
	}
}

// Hedged runs lay their shadows on a dedicated track and mark them, so
// waterfalls can show the speculation without breaking tree validity.
func TestHedgeSpansOnShadowTrack(t *testing.T) {
	_, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) {
		cfg.Hedge = HedgePolicy{Delay: time.Nanosecond, MaxRate: 1, JitterSeed: 5}
	})
	rep, err := d.RunEager(randomInput(m, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hedges == 0 {
		t.Fatal("no hedge launched")
	}
	if err := obs.ValidateTree(rep.Trace); err != nil {
		t.Fatalf("hedged span tree invalid: %v", err)
	}
	shadows := 0
	rep.Trace.Walk(func(s *obs.Span) {
		if s.Attrs["hedge"] == "true" {
			shadows++
			if s.Attrs["billed"] == "" {
				t.Fatal("hedge span missing billed attr")
			}
		}
	})
	if shadows != rep.Hedges {
		t.Fatalf("trace has %d hedge shadows, report says %d hedges", shadows, rep.Hedges)
	}
}

// Unit-level breaker state machine: closed → open on consecutive
// failures, short-circuit while open, one probe on half-open, close on
// its success, re-trip on a failed probe.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{pol: BreakerPolicy{ConsecutiveFailures: 3, OpenFor: 5 * time.Second}}
	at := func(s int) time.Duration { return time.Duration(s) * time.Second }

	if ok, _ := b.allow(at(0)); !ok {
		t.Fatal("fresh breaker not closed")
	}
	for i := 0; i < 3; i++ {
		b.record(at(i), false)
	}
	if b.state != breakerOpen {
		t.Fatalf("3 consecutive failures left state %v", b.state)
	}
	if ok, until := b.allow(at(3)); ok || until != at(2)+5*time.Second {
		t.Fatalf("open breaker allowed an invoke (until %v)", until)
	}
	if ok, _ := b.allow(at(8)); !ok {
		t.Fatal("cool-down elapsed but breaker did not probe")
	}
	if b.state != breakerHalfOpen {
		t.Fatalf("state %v after cool-down, want half-open", b.state)
	}
	if ok, until := b.allow(at(8)); ok || until != at(2)+5*time.Second {
		t.Fatalf("a second invoke passed while the probe was in flight (until %v)", until)
	}
	b.record(at(8), true)
	if b.state != breakerClosed {
		t.Fatalf("the probe passed but state is %v", b.state)
	}

	// Re-trip, then fail the probe: straight back to open.
	for i := 0; i < 3; i++ {
		b.record(at(20+i), false)
	}
	if ok, _ := b.allow(at(30)); !ok {
		t.Fatal("probe after second trip not allowed")
	}
	b.record(at(30), false)
	if b.state != breakerOpen {
		t.Fatalf("failed probe left state %v, want open", b.state)
	}
	if b.trips != 3 {
		t.Fatalf("trips = %d, want 3", b.trips)
	}
}

// The rate trigger fires only with enough samples inside the sliding
// window; outcomes older than the window stop counting.
func TestBreakerRateTriggerWindow(t *testing.T) {
	b := &breaker{pol: BreakerPolicy{FailureRate: 0.5, MinSamples: 4, Window: 10 * time.Second}}
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }
	b.record(sec(0), false)
	b.record(sec(1), false)
	b.record(sec(2), true)
	if b.state != breakerClosed {
		t.Fatal("rate trigger fired below MinSamples")
	}
	b.record(sec(3), false)
	if b.state != breakerOpen {
		t.Fatalf("3/4 failures in window did not trip (state %v)", b.state)
	}

	// Failures that age out of the window stop counting toward the rate.
	b2 := &breaker{pol: BreakerPolicy{FailureRate: 0.5, MinSamples: 3, Window: 10 * time.Second}}
	b2.record(sec(0), false)
	b2.record(sec(1), false)
	if b2.state != breakerClosed {
		t.Fatal("rate trigger fired below MinSamples")
	}
	b2.record(sec(30), true)
	b2.record(sec(31), true)
	b2.record(sec(32), false)
	// The window now holds {ok, ok, fail}: rate 1/3, below the trigger.
	if b2.state != breakerClosed {
		t.Fatalf("aged-out failures still tripped the breaker (state %v)", b2.state)
	}
}

// During a sustained fault storm the breaker short-circuits doomed
// attempts: the job records them, bills nothing for them, and labels
// them in the fault list.
func TestBreakerShortCircuitsUnderStorm(t *testing.T) {
	_, d, m, _ := deployTinyResilient(t, 0.9, 7, func(cfg *Config) {
		cfg.Retry.MaxAttempts = 10
		cfg.Breaker = BreakerPolicy{ConsecutiveFailures: 2}
	})
	shortCircuits, breakerErrs := 0, 0
	sawLabel := false
	for j := 0; j < 12; j++ {
		rep, err := d.RunEager(randomInput(m, int64(j)))
		var rj *Report
		if rep != nil {
			rj = rep
		}
		var be *BreakerOpenError
		if errors.As(err, &be) {
			breakerErrs++
		}
		if rj != nil {
			shortCircuits += rj.ShortCircuits
			for _, lr := range rj.PerLambda {
				for _, f := range lr.InjectedFaults {
					if f == "breaker-open" {
						sawLabel = true
					}
				}
			}
		}
	}
	if shortCircuits == 0 {
		t.Fatal("90% fault rate with a 2-failure breaker never short-circuited")
	}
	if !sawLabel {
		t.Log("breaker-open label only on failed jobs' records")
	}
	if breakerErrs == 0 {
		t.Fatal("no job ended on a *BreakerOpenError in its error chain")
	}
}

// Failed jobs must stay cost-exact too: the failure trace carries every
// charge the job billed before giving up, bit-for-bit against the meter.
func TestFailureTraceReproducesCharges(t *testing.T) {
	e, d, m, _ := deployTinyResilient(t, 0.85, 13, func(cfg *Config) {
		cfg.Retry.MaxAttempts = 2
	})
	sawFailure := false
	for j := 0; j < 15; j++ {
		before := e.meter.Total()
		rep, err := d.RunEager(randomInput(m, int64(j)))
		delta := e.meter.Total() - before
		if err == nil {
			continue
		}
		sawFailure = true
		if rep == nil || rep.Trace == nil {
			t.Fatalf("job %d failed without a report/trace", j)
		}
		if diff := rep.Cost - delta; diff > 1e-15 || diff < -1e-15 {
			t.Fatalf("job %d: failed Report.Cost %.18f != meter delta %.18f", j, rep.Cost, delta)
		}
		sum := obs.SumCosts(rep.Trace)
		if diff := sum - rep.Cost; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("job %d: failure trace sums %.18f, Report.Cost %.18f", j, sum, rep.Cost)
		}
	}
	if !sawFailure {
		t.Fatal("85% faults with 2 attempts never failed a job")
	}
}

// Property (satellite): across seeds and attempt numbers, every drawn
// backoff lies in the equal-jitter window [w/2, w] for the attempt's
// exponential window w, and never exceeds the 10 s cap.
func TestPropertyBackoffWithinWindowAcrossSeeds(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 12}
	for seed := int64(1); seed <= 25; seed++ {
		policy.JitterSeed = seed
		d := &Deployment{cfg: Config{Retry: policy}}
		d.initRetryRng()
		for n := 1; n <= 12; n++ {
			w := float64(retryBaseBackoff)
			for i := 1; i < n; i++ {
				w *= 2
				if w >= float64(retryMaxBackoff) {
					w = float64(retryMaxBackoff)
					break
				}
			}
			got := d.backoff(n)
			if got < time.Duration(w/2) || got > time.Duration(w) {
				t.Fatalf("seed %d attempt %d: backoff %v outside [%v, %v]", seed, n, got, time.Duration(w/2), time.Duration(w))
			}
			if got > retryMaxBackoff {
				t.Fatalf("seed %d attempt %d: backoff %v exceeds the cap", seed, n, got)
			}
		}
	}
}

// The jittered hedge delay never undershoots its base (the percentile
// estimate) and never stretches past base + base/4.
func TestHedgeDelayJitterBounds(t *testing.T) {
	for _, base := range []time.Duration{time.Microsecond, time.Millisecond, 170 * time.Millisecond, time.Hour} {
		for _, u := range []float64{0, 0.25, 0.5, 0.999999, 1, -3} {
			got := hedgeDelayFrom(base, u)
			if got < base || got > base+base/4 {
				t.Fatalf("hedgeDelayFrom(%v, %v) = %v outside [base, base+base/4]", base, u, got)
			}
		}
	}
	if got := hedgeDelayFrom(0, 0.5); got != 0 {
		t.Fatalf("zero base produced delay %v", got)
	}
	if got := hedgeDelayFrom(-time.Second, 0.5); got != 0 {
		t.Fatalf("negative base produced delay %v", got)
	}
}
