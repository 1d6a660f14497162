package coordinator

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// A breaker's half-open probe must not double-charge the global retry
// budget: every short-circuited attempt spends exactly one retry token
// at the retry gate, and the probe that allow() admits in half-open
// state runs for free — it IS the retry that was already paid for.
// Token accounting over a trip→cool-down→probe→close cycle therefore
// works out to the clean-job earns, minus the one earn the probed
// partition forfeits (its invoke no longer succeeds on the first
// attempt), minus one token per short circuit. Nothing else.
func TestHalfOpenProbeSpendsBudgetOnce(t *testing.T) {
	const earnPerSuccess = 0.5
	_, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) {
		cfg.Budget = BudgetPolicy{MaxTokens: 1000, EarnPerSuccess: earnPerSuccess}
		cfg.Breaker = BreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Second}
	})
	// Start well below the cap, so earns are not lost to saturation.
	d.retryMu.Lock()
	d.budgetTokens = 50
	d.retryMu.Unlock()

	// Calibrate the per-job earn with the breaker closed: one token per
	// first-attempt success (puts and invokes alike).
	before := d.budgetTokens
	if _, err := d.Run(randomInput(m, 1), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	cleanEarn := d.budgetTokens - before
	if cleanEarn <= 0 {
		t.Fatalf("clean job earned %v tokens, want > 0", cleanEarn)
	}

	// Trip partition 0's breaker by hand, then run a second job: its
	// first invoke short-circuits (spending retry tokens) until the
	// cool-down elapses across the accumulated backoffs, at which point
	// allow() admits the half-open probe, the clean platform lets it
	// succeed, and the breaker closes again.
	d.retryMu.Lock()
	d.parts[0].brk.trip(d.cfg.Platform.Now())
	d.retryMu.Unlock()

	before = d.budgetTokens
	rep, err := d.Run(randomInput(m, 2), RunOptions{})
	if err != nil {
		t.Fatalf("probe job failed: %v", err)
	}
	if rep.ShortCircuits == 0 {
		t.Fatal("tripped breaker never short-circuited an attempt")
	}
	want := before + cleanEarn - earnPerSuccess - float64(rep.ShortCircuits)
	if got := d.budgetTokens; math.Abs(got-want) > 1e-9 {
		t.Fatalf("budget after probe cycle = %v, want %v (%v clean earns - 1 forfeited earn - %d short-circuit tokens); the probe itself must spend nothing",
			got, want, cleanEarn, rep.ShortCircuits)
	}
	if denied := rep.BudgetDenied; denied != 0 {
		t.Fatalf("a funded budget denied %d attempts", denied)
	}
	d.retryMu.Lock()
	state := d.parts[0].brk.state
	d.retryMu.Unlock()
	if state != breakerClosed {
		t.Fatalf("successful probe left the breaker %v, want closed", state)
	}
}

// The global budget is the last gate even for breaker short-circuits:
// with an empty bucket the retry that would become the probe is denied,
// the job fails with the typed BudgetExhaustedError, and the breaker
// stays open — no probe sneaks through on credit.
func TestBreakerShortCircuitDeniedByEmptyBudget(t *testing.T) {
	_, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) {
		cfg.Budget = BudgetPolicy{MaxTokens: 10, EarnPerSuccess: 1e-6}
		cfg.Breaker = BreakerPolicy{ConsecutiveFailures: 2, OpenFor: time.Hour}
	})
	d.retryMu.Lock()
	d.budgetTokens = 0.5 // less than the one token a retry costs
	d.parts[0].brk.trip(d.cfg.Platform.Now())
	d.retryMu.Unlock()

	rep, err := d.Run(randomInput(m, 3), RunOptions{})
	if err == nil {
		t.Fatal("job served through an open breaker on an empty budget")
	}
	if !IsBudgetExhausted(err) {
		t.Fatalf("error is not a budget denial: %v", err)
	}
	if rep == nil || rep.ShortCircuits != 1 {
		t.Fatalf("want exactly one short circuit before the denial, got %+v", rep)
	}
	if denied := rep.BudgetDenied; denied != 1 {
		t.Fatalf("BudgetDenied = %d, want 1", denied)
	}
	d.retryMu.Lock()
	state := d.parts[0].brk.state
	d.retryMu.Unlock()
	if state != breakerOpen {
		t.Fatalf("denied retry moved the breaker to %v, want open", state)
	}
}

// Round-trip accuracy of the quantized fallback plans the brownout
// ladder swaps onto: a 4- or 8-bit deployment of the same plan must
// return softmax outputs within a known bound of the full-precision
// pipeline, with 8 bits at least as close as 4.
func TestQuantizedFallbackAccuracyBounds(t *testing.T) {
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	in := randomInput(m, 9)
	want, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}

	diffs := map[int]float64{}
	for bits, bound := range map[int]float64{8: 0.15, 4: 0.5} {
		e := newEnv()
		cfg := e.config()
		cfg.NamePrefix = fmt.Sprintf("q%d", bits)
		cfg.QuantizeBits = bits
		d, err := Deploy(cfg, m, w, plan)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Teardown)
		rep, err := d.Run(in, RunOptions{})
		if err != nil {
			t.Fatalf("%d-bit fallback run: %v", bits, err)
		}
		diff := float64(tensor.MaxAbsDiff(want, rep.Output))
		if diff > bound {
			t.Fatalf("%d-bit fallback shifted outputs by %v, bound %v", bits, diff, bound)
		}
		diffs[bits] = diff
	}
	if diffs[8] > diffs[4]+1e-6 {
		t.Fatalf("8-bit fallback (diff %v) is farther from full precision than 4-bit (diff %v)",
			diffs[8], diffs[4])
	}
}
