package serving

import (
	"cmp"
	"fmt"
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

// BrownoutPolicy closes the loop between the run's obs.TimeSeries and
// the serving schedulers: each flushed window is judged healthy or
// unhealthy against the thresholds below, and runs of consecutive
// unhealthy (healthy) windows step the degradation ladder down (up) one
// rung at a time. Everything runs on the simulated clock inside the
// single-threaded event loop — the controller judges windows in flush
// order and the loop applies the level before each admission — so
// same-seed runs brown out and recover byte-identically. The zero value
// disables the controller.
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

// Validate rejects nonsensical brownout policies before a run starts.
func (p BrownoutPolicy) Validate() error {
	if !p.Enabled {
		return nil
	}
	if p.P99 < 0 {
		return fmt.Errorf("brownout policy: P99 %v is negative", p.P99)
	}
	if !(p.BadFraction >= 0 && p.BadFraction <= 1) {
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

// brownoutCtl is the run-scoped controller state. The scheduler calls
// judge after every ts.Advance and after the final Flush, so each window
// is judged once, in flush order, on the event loop; the loop enacts the
// level it asks for before the next admission.
type brownoutCtl struct {
	pol    BrownoutPolicy // defaults resolved
	judged int            // flushed windows judged so far

	level        int
	unhealthyRun int
	healthyRun   int

	// applied is the level the serving loop last enacted; transitions
	// counts ladder moves for the run report.
	applied     int
	transitions int
	deepest     int
}

// newBrownoutCtl resolves a validated pol's defaults (it has no negative
// field, so zero is unset); the controller judges the windows ts
// flushes from now on.
func newBrownoutCtl(pol BrownoutPolicy, ts *obs.TimeSeries) *brownoutCtl {
	pol.BadFraction = cmp.Or(pol.BadFraction, 0.2)
	pol.MinJobs = cmp.Or(pol.MinJobs, 4)
	pol.StepUpAfter = cmp.Or(pol.StepUpAfter, 2)
	pol.StepDownAfter = cmp.Or(pol.StepDownAfter, 4)
	pol.MaxLevel = cmp.Or(pol.MaxLevel, BrownoutShed)
	return &brownoutCtl{pol: pol, judged: ts.FlushedWindows()}
}

// judge steps the ladder once for every window ts flushed since the
// last call, reading each through the handles the run wrote it with.
func (c *brownoutCtl) judge(ts *obs.TimeSeries, h *serveHandles) {
	if c == nil {
		return
	}
	for n := ts.FlushedWindows(); c.judged < n; c.judged++ {
		c.step(c.unhealthyWindow(h, c.judged))
	}
}

// step moves the ladder with hysteresis after one judged window.
func (c *brownoutCtl) step(unhealthy bool) {
	if unhealthy {
		c.unhealthyRun++
		c.healthyRun = 0
		if c.unhealthyRun >= c.pol.StepUpAfter && c.level < c.pol.MaxLevel {
			c.level++
			c.unhealthyRun = 0
			c.transitions++
			c.deepest = max(c.deepest, c.level)
		}
		return
	}
	c.healthyRun++
	c.unhealthyRun = 0
	if c.healthyRun >= c.pol.StepDownAfter && c.level > BrownoutHealthy {
		c.level--
		c.healthyRun = 0
		c.transitions++
	}
}

// unhealthyWindow applies the policy's triggers to flushed window i. A
// breaker acts through the outcomes it causes: a short-circuited
// attempt ends as a failure or a deadline miss.
func (c *brownoutCtl) unhealthyWindow(h *serveHandles, i int) bool {
	min := int64(c.pol.MinJobs)
	if p99 := c.pol.P99; p99 > 0 {
		if n, lat := h.tsLatencySec.InWindow(i); n >= min && lat > p99.Seconds() {
			return true
		}
	}
	jobs, throttles := h.jobs.InWindow(i), h.throttles.InWindow(i)
	bad := h.shed.InWindow(i) + h.deadline.InWindow(i) + h.failures.InWindow(i) +
		h.admFail.InWindow(i) + h.budgetExhausted.InWindow(i)
	settled, attempts := jobs+bad, jobs+throttles
	return settled >= min && float64(bad)/float64(settled) > c.pol.BadFraction ||
		attempts >= min && float64(throttles)/float64(attempts) > brownoutThrottleFraction
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
