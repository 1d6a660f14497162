package serving

import (
	"fmt"
	"strings"
	"time"

	"ampsinf/internal/obs"
)

// Brownout degradation ladder. Each level subsumes the ones above it:
// at BrownoutFallback hedging is still disabled and the batch window
// still widened.
const (
	// BrownoutHealthy serves normally.
	BrownoutHealthy = iota
	// BrownoutNoHedge disables speculative duplicate invocations —
	// the cheapest load to shed is the load we created ourselves.
	BrownoutNoHedge
	// BrownoutWideBatch widens the admission batch window, trading
	// per-request latency for fewer invocations per second.
	BrownoutWideBatch
	// BrownoutFallback swaps new admissions onto the pre-planned
	// quantized fallback deployment: smaller packages, faster cold
	// starts, lower memory — degraded answers over no answers.
	BrownoutFallback
	// BrownoutShed rejects new admissions outright until windows
	// recover.
	BrownoutShed
)

// brownoutLevelNames renders levels for reports and logs.
var brownoutLevelNames = [...]string{"healthy", "no-hedge", "wide-batch", "fallback", "shed"}

// BrownoutLevelName names a degradation level ("healthy" … "shed").
func BrownoutLevelName(level int) string {
	if level < 0 || level >= len(brownoutLevelNames) {
		return fmt.Sprintf("level-%d", level)
	}
	return brownoutLevelNames[level]
}

// BrownoutPolicy closes the loop between the obs.TimeSeries window
// stream and the serving schedulers: each flushed window is judged
// healthy or unhealthy against the thresholds below, and runs of
// consecutive unhealthy (healthy) windows step the degradation ladder
// down (up) one rung at a time. Everything runs on the simulated clock
// inside the single-threaded event loop — the controller observes
// windows in flush order and the loop applies the level before each
// admission — so same-seed runs brown out and recover byte-identically.
// The zero value disables the controller.
type BrownoutPolicy struct {
	// Enabled turns the controller on.
	Enabled bool
	// P99 marks a window unhealthy when its completed-request p99
	// latency exceeds this (0 disables the latency trigger).
	P99 time.Duration
	// BadFraction marks a window unhealthy when the fraction of bad
	// outcomes — shed, deadline, failed, budget-exhausted — among all
	// settled requests exceeds this (default 0.2). Brownout's own
	// hard-shed rejections are excluded, so the ladder's deepest rung
	// does not feed back into its own trigger.
	BadFraction float64
	// MinJobs is the minimum number of settled requests (latency
	// observations for the P99 trigger; settled outcomes for the
	// fraction triggers) a window needs before those triggers can fire
	// (default 4). Sparse windows — one shed request out of two — would
	// otherwise read as catastrophic and walk the ladder down on noise.
	MinJobs int
	// StepUpAfter is how many consecutive unhealthy windows step one
	// rung down the ladder (default 2).
	StepUpAfter int
	// StepDownAfter is how many consecutive healthy windows step one
	// rung back up (default 4) — the hysteresis that keeps the ladder
	// from oscillating window to window.
	StepDownAfter int
	// MaxLevel caps the descent (default BrownoutShed). A run without a
	// fallback deployment treats BrownoutFallback as BrownoutWideBatch.
	MaxLevel int
}

// A window is also unhealthy when admission throttles exceed
// brownoutThrottleFraction of its admission attempts; the admission
// batch window is multiplied by brownoutBatchWindowFactor at
// BrownoutWideBatch and below.
const (
	brownoutThrottleFraction  = 0.5
	brownoutBatchWindowFactor = 4
)

func (p BrownoutPolicy) enabled() bool { return p.Enabled }

func (p BrownoutPolicy) badFraction() float64 {
	if p.BadFraction > 0 {
		return p.BadFraction
	}
	return 0.2
}

func (p BrownoutPolicy) minJobs() int64 {
	if p.MinJobs > 0 {
		return int64(p.MinJobs)
	}
	return 4
}

func (p BrownoutPolicy) stepUpAfter() int {
	if p.StepUpAfter > 0 {
		return p.StepUpAfter
	}
	return 2
}

func (p BrownoutPolicy) stepDownAfter() int {
	if p.StepDownAfter > 0 {
		return p.StepDownAfter
	}
	return 4
}

func (p BrownoutPolicy) maxLevel() int {
	if p.MaxLevel > 0 {
		return p.MaxLevel
	}
	return BrownoutShed
}

// Validate rejects nonsensical brownout policies before a run starts.
func (p BrownoutPolicy) Validate() error {
	if !p.Enabled {
		return nil
	}
	if p.P99 < 0 {
		return fmt.Errorf("brownout policy: P99 %v is negative", p.P99)
	}
	if p.BadFraction < 0 || p.BadFraction > 1 {
		return fmt.Errorf("brownout policy: BadFraction %v outside [0, 1]", p.BadFraction)
	}
	if p.MinJobs < 0 {
		return fmt.Errorf("brownout policy: MinJobs %d is negative", p.MinJobs)
	}
	if p.StepUpAfter < 0 {
		return fmt.Errorf("brownout policy: StepUpAfter %d is negative", p.StepUpAfter)
	}
	if p.StepDownAfter < 0 {
		return fmt.Errorf("brownout policy: StepDownAfter %d is negative", p.StepDownAfter)
	}
	if p.MaxLevel < 0 || p.MaxLevel > BrownoutShed {
		return fmt.Errorf("brownout policy: MaxLevel %d outside [0, %d]", p.MaxLevel, BrownoutShed)
	}
	return nil
}

// brownoutCtl is the run-scoped controller state. Its observe method is
// subscribed to the run's TimeSeries and fires — under the series lock,
// in window order, on the event loop's goroutine — for every flushed
// window; it only touches the controller's own fields. The loop reads
// level between events and applies it, so an observe-driven change
// takes effect at the first admission after the window flushes.
type brownoutCtl struct {
	pol BrownoutPolicy

	level        int
	unhealthyRun int
	healthyRun   int

	// breakerOpen latches the last seen breaker-state gauge: the gauge
	// is only written on transitions, so its absence from a window means
	// "unchanged", not "closed".
	breakerOpen bool

	// applied is the level the serving loop last enacted; transitions
	// counts ladder moves for the run report.
	applied     int
	transitions int
	deepest     int
}

func newBrownoutCtl(pol BrownoutPolicy) *brownoutCtl {
	return &brownoutCtl{pol: pol}
}

// observe judges one flushed window and steps the ladder with
// hysteresis. It must not call back into the TimeSeries (it runs under
// the series lock).
func (c *brownoutCtl) observe(f *obs.WindowFrame) {
	if c.unhealthyWindow(f) {
		c.unhealthyRun++
		c.healthyRun = 0
		if c.unhealthyRun >= c.pol.stepUpAfter() && c.level < c.pol.maxLevel() {
			c.level++
			c.unhealthyRun = 0
			c.transitions++
			if c.level > c.deepest {
				c.deepest = c.level
			}
		}
		return
	}
	c.healthyRun++
	c.unhealthyRun = 0
	if c.healthyRun >= c.pol.stepDownAfter() && c.level > BrownoutHealthy {
		c.level--
		c.healthyRun = 0
		c.transitions++
	}
}

// unhealthyWindow applies the policy's triggers to one window frame.
func (c *brownoutCtl) unhealthyWindow(f *obs.WindowFrame) bool {
	// Breaker-state gauges appear only in transition windows; latch the
	// most recent write. A frame's map iteration order is undefined, so
	// fold all writes into "any function's breaker not closed".
	sawBreaker := false
	anyOpen := false
	for name, v := range f.Gauges {
		if strings.HasPrefix(name, "coordinator_breaker_state{") {
			sawBreaker = true
			if v != 0 {
				anyOpen = true
			}
		}
	}
	if sawBreaker {
		c.breakerOpen = anyOpen
	}
	if c.breakerOpen {
		return true
	}
	min := c.pol.minJobs()
	if p99 := c.pol.P99; p99 > 0 {
		if lat := f.Hists["serving_latency_seconds"]; lat != nil && lat.Count >= min &&
			lat.P99 > p99.Seconds() {
			return true
		}
	}
	jobs := f.Counters["serving_jobs_total"]
	bad := f.Counters["serving_shed_total"] +
		f.Counters["serving_deadline_failures_total"] +
		f.Counters["serving_failures_total"] +
		f.Counters["serving_admission_failures_total"] +
		f.Counters["serving_budget_exhausted_total"]
	if settled := jobs + bad; settled >= min &&
		float64(bad)/float64(settled) > c.pol.badFraction() {
		return true
	}
	throttles := f.Counters["serving_throttles_total"]
	if attempts := jobs + throttles; attempts >= min &&
		float64(throttles)/float64(attempts) > brownoutThrottleFraction {
		return true
	}
	return false
}

// Level is the ladder rung the controller currently asks for.
func (c *brownoutCtl) Level() int {
	if c == nil {
		return BrownoutHealthy
	}
	return c.level
}

// widenBatch reports whether the coalescer should widen its window and
// by how much.
func (c *brownoutCtl) widenBatch() (float64, bool) {
	if c == nil || c.level < BrownoutWideBatch {
		return 1, false
	}
	return brownoutBatchWindowFactor, true
}
