package coordinator

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
)

// ErrDeadlineExceeded marks job failures caused by the per-job deadline:
// the remaining budget could not cover another attempt, so the operation
// failed fast instead of retrying blind. Test with errors.Is or
// IsDeadlineExceeded.
var ErrDeadlineExceeded = errors.New("deadline exceeded")

// DeadlineError is the typed error a deadline-bounded operation returns
// when its remaining budget cannot cover another attempt. It wraps both
// ErrDeadlineExceeded and the fault that triggered the final decision
// (nil when the deadline was already spent before the first attempt).
type DeadlineError struct {
	// Op names the operation that gave up ("invoke part-2", "put input").
	Op string
	// Deadline is the job's budget; Elapsed the simulated time already
	// committed when the decision was made.
	Deadline time.Duration
	Elapsed  time.Duration
	// Cause is the transient fault that would otherwise have been
	// retried, if any.
	Cause error
}

func (e *DeadlineError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("coordinator: %s: deadline %v exceeded at %v (last fault: %v)", e.Op, e.Deadline, e.Elapsed, e.Cause)
	}
	return fmt.Sprintf("coordinator: %s: deadline %v exceeded at %v", e.Op, e.Deadline, e.Elapsed)
}

func (e *DeadlineError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrDeadlineExceeded, e.Cause}
	}
	return []error{ErrDeadlineExceeded}
}

// IsDeadlineExceeded reports whether err (anywhere in its chain) is a
// deadline-exceeded failure.
func IsDeadlineExceeded(err error) bool { return errors.Is(err, ErrDeadlineExceeded) }

// ErrBudgetExhausted marks operations stopped by the deployment-wide
// retry budget: the shared token bucket was empty, so the retry (or
// hedge) was skipped at zero cost instead of amplifying the overload.
// Test with errors.Is or IsBudgetExhausted.
var ErrBudgetExhausted = errors.New("retry budget exhausted")

// BudgetExhaustedError is the typed error an operation returns when the
// deployment-wide retry budget cannot cover another retry. Nothing was
// billed for the skipped attempt. It wraps both ErrBudgetExhausted and
// the fault that would otherwise have been retried.
type BudgetExhaustedError struct {
	// Op names the operation that was denied ("invoke part-2", "put input").
	Op string
	// Attempts is how many attempts the operation had already made.
	Attempts int
	// Cause is the transient fault that would otherwise have been
	// retried.
	Cause error
}

func (e *BudgetExhaustedError) Error() string {
	return fmt.Sprintf("coordinator: %s: global retry budget exhausted after %d attempts (last fault: %v)", e.Op, e.Attempts, e.Cause)
}

func (e *BudgetExhaustedError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrBudgetExhausted, e.Cause}
	}
	return []error{ErrBudgetExhausted}
}

// IsBudgetExhausted reports whether err (anywhere in its chain) is a
// global-retry-budget denial.
func IsBudgetExhausted(err error) bool { return errors.Is(err, ErrBudgetExhausted) }

// BudgetPolicy bounds retry amplification deployment-wide with a token
// bucket shared across every job's retries and hedges: first-attempt
// successes earn tokens, each retry or hedge spends one. When the
// bucket is empty, retries are skipped with a typed
// BudgetExhaustedError (zero cost) and hedges are silently not
// launched, so a correlated fault storm cannot multiply load — the
// retry rate is bounded by the success rate, by construction. The zero
// value disables the budget.
type BudgetPolicy struct {
	// MaxTokens caps the bucket, which starts full (0 disables the
	// budget).
	MaxTokens float64
	// EarnPerSuccess is the tokens earned per first-attempt success
	// (default 0.1, i.e. one retry allowed per ten clean operations once
	// the initial stake is spent).
	EarnPerSuccess float64
}

func (p BudgetPolicy) enabled() bool { return p.MaxTokens > 0 }

func (p BudgetPolicy) earn() float64 {
	if p.EarnPerSuccess > 0 {
		return p.EarnPerSuccess
	}
	return 0.1
}

// Validate rejects nonsensical budget policies at deployment time. (Each
// float check is written to fail on NaN, which every comparison fails.)
func (p BudgetPolicy) Validate() error {
	if !(p.MaxTokens >= 0) {
		return fmt.Errorf("budget policy: MaxTokens %v is not ≥ 0", p.MaxTokens)
	}
	if !(p.EarnPerSuccess >= 0) {
		return fmt.Errorf("budget policy: EarnPerSuccess %v is not ≥ 0", p.EarnPerSuccess)
	}
	return nil
}

// spendBudgetLocked takes one token — one retry or one hedge — from the
// shared bucket, reporting whether it was available. Callers hold
// retryMu; a disabled budget always grants.
func (d *Deployment) spendBudgetLocked() bool {
	if !d.cfg.Budget.enabled() {
		return true
	}
	if d.budgetTokens < 1 {
		return false
	}
	d.budgetTokens--
	return true
}

// spendRetryToken claims one retry from the deployment-wide budget.
func (d *Deployment) spendRetryToken() bool {
	d.retryMu.Lock()
	defer d.retryMu.Unlock()
	return d.spendBudgetLocked()
}

// earnBudgetToken credits the bucket for one first-attempt success,
// saturating at MaxTokens.
func (d *Deployment) earnBudgetToken() {
	if !d.cfg.Budget.enabled() {
		return
	}
	d.retryMu.Lock()
	d.budgetTokens = math.Min(d.budgetTokens+d.cfg.Budget.earn(), d.cfg.Budget.MaxTokens)
	d.retryMu.Unlock()
}

// SetHedgingDisabled turns speculative duplicate invocations off (or
// back on) at runtime without redeploying — the brownout controller's
// first degradation rung. Safe on the serving hot path: one atomic-free
// mutex-guarded flag read per hedge decision.
func (d *Deployment) SetHedgingDisabled(off bool) {
	d.retryMu.Lock()
	d.hedgeOff = off
	d.retryMu.Unlock()
}

// Validate rejects nonsensical retry policies at deployment time.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("retry policy: MaxAttempts %d is negative", p.MaxAttempts)
	}
	return nil
}

// HedgePolicy launches a speculative duplicate of a slow partition
// invocation after a hedge delay and takes the first success, billing
// the cancelled loser only up to the winner's finish. The zero value
// disables hedging.
type HedgePolicy struct {
	// Percentile derives the hedge delay from past successful attempt
	// durations of the same partition function (e.g. 95: hedge once the
	// attempt outlives the p95 of its history). 0 disables the
	// percentile path.
	Percentile float64
	// Delay is a fixed hedge delay, used until a partition has
	// MinSamples of history (and exclusively when Percentile is 0).
	Delay time.Duration
	// MinSamples is how much history the percentile path needs before
	// it takes over from Delay (default 3, at most the 64 samples kept).
	MinSamples int
	// MaxRate caps the fraction of primary invocations that may hedge,
	// bounding cost inflation (default 0.25).
	MaxRate float64
	// JitterSeed seeds the deterministic hedge-delay jitter stream (0
	// behaves as seed 1).
	JitterSeed int64
}

func (p HedgePolicy) enabled() bool { return p.Percentile > 0 || p.Delay > 0 }

func (p HedgePolicy) minSamples() int {
	if p.MinSamples > 0 {
		return p.MinSamples
	}
	return 3
}

func (p HedgePolicy) maxRate() float64 {
	if p.MaxRate > 0 {
		return p.MaxRate
	}
	return 0.25
}

// Validate rejects nonsensical hedge policies at deployment time.
func (p HedgePolicy) Validate() error {
	if !(p.Percentile >= 0 && p.Percentile <= 100) {
		return fmt.Errorf("hedge policy: Percentile %v outside [0, 100]", p.Percentile)
	}
	if p.Delay < 0 {
		return fmt.Errorf("hedge policy: Delay %v is negative", p.Delay)
	}
	if p.MinSamples < 0 {
		return fmt.Errorf("hedge policy: MinSamples %d is negative", p.MinSamples)
	}
	if p.MinSamples > latencyHistorySize {
		// The history never holds more, so the percentile path would stay
		// off for the life of the deployment.
		return fmt.Errorf("hedge policy: MinSamples %d exceeds the %d-sample latency history", p.MinSamples, latencyHistorySize)
	}
	if !(p.MaxRate >= 0 && p.MaxRate <= 1) {
		return fmt.Errorf("hedge policy: MaxRate %v outside [0, 1]", p.MaxRate)
	}
	return nil
}

// hedgeDelayFrom computes the jittered hedge delay from a base delay
// and one uniform draw u in [0, 1): base plus up to a quarter-base of
// jitter, so duplicate storms from many identical pipelines decorrelate
// while the delay never drops below the percentile estimate. Pure so it
// can be fuzzed.
func hedgeDelayFrom(base time.Duration, u float64) time.Duration {
	if base <= 0 {
		return 0
	}
	if u < 0 {
		u = 0
	} else if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	j := time.Duration(u * float64(base) / 4)
	if j < 0 || base+j < base { // overflow guard
		return base
	}
	return base + j
}

// latencyHistorySize bounds the per-partition ring of successful
// attempt durations the percentile hedge delay is derived from.
const latencyHistorySize = 64

// latencyRing is a fixed-size ring of recent successful attempt
// durations for one partition function, with the live samples mirrored
// in ascending order so a percentile is one index read. Callers hold
// the deployment's retryMu.
type latencyRing struct {
	buf    [latencyHistorySize]time.Duration
	sorted [latencyHistorySize]time.Duration // the live samples of buf, ascending
	n      int                               // total recorded (may exceed len(buf))
	next   int
}

func (r *latencyRing) add(d time.Duration) {
	live := r.size()
	if live == len(r.buf) {
		// Full: the slot about to be overwritten leaves the sorted mirror.
		i, _ := slices.BinarySearch(r.sorted[:live], r.buf[r.next])
		copy(r.sorted[i:], r.sorted[i+1:live])
		live--
	}
	i, _ := slices.BinarySearch(r.sorted[:live], d)
	copy(r.sorted[i+1:live+1], r.sorted[i:live])
	r.sorted[i] = d
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

func (r *latencyRing) size() int {
	return min(r.n, len(r.buf))
}

// percentile returns the nearest-rank p-th percentile of the recorded
// history (0 when empty).
func (r *latencyRing) percentile(p float64) time.Duration {
	n := r.size()
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	return r.sorted[min(max(idx, 0), n-1)]
}

// BreakerPolicy configures the per-partition-function circuit breaker:
// closed → open on consecutive failures or a failure rate over a
// sliding simulated-time window, open → half-open after a cool-down,
// half-open → closed after one successful probe. While open, invocations
// of the function are short-circuited without touching the platform.
// The zero value disables breakers.
type BreakerPolicy struct {
	// ConsecutiveFailures trips the breaker after this many failures in
	// a row (0 disables the consecutive trigger).
	ConsecutiveFailures int
	// FailureRate trips the breaker when the failure fraction over
	// Window reaches this value with at least MinSamples outcomes (0
	// disables the rate trigger).
	FailureRate float64
	// MinSamples is the minimum outcomes in the window before the rate
	// trigger may fire (default 5).
	MinSamples int
	// Window is the sliding simulated-time window for the rate trigger
	// (default 30 s).
	Window time.Duration
	// OpenFor is how long an open breaker short-circuits before probing
	// (default 5 s).
	OpenFor time.Duration
}

func (p BreakerPolicy) enabled() bool { return p.ConsecutiveFailures > 0 || p.FailureRate > 0 }

func (p BreakerPolicy) minSamples() int {
	if p.MinSamples > 0 {
		return p.MinSamples
	}
	return 5
}

func (p BreakerPolicy) window() time.Duration {
	if p.Window > 0 {
		return p.Window
	}
	return 30 * time.Second
}

func (p BreakerPolicy) openFor() time.Duration {
	if p.OpenFor > 0 {
		return p.OpenFor
	}
	return 5 * time.Second
}

// Validate rejects nonsensical breaker policies at deployment time.
func (p BreakerPolicy) Validate() error {
	if p.ConsecutiveFailures < 0 {
		return fmt.Errorf("breaker policy: ConsecutiveFailures %d is negative", p.ConsecutiveFailures)
	}
	if !(p.FailureRate >= 0 && p.FailureRate <= 1) {
		return fmt.Errorf("breaker policy: FailureRate %v outside [0, 1]", p.FailureRate)
	}
	if p.MinSamples < 0 {
		return fmt.Errorf("breaker policy: MinSamples %d is negative", p.MinSamples)
	}
	if p.Window < 0 {
		return fmt.Errorf("breaker policy: Window %v is negative", p.Window)
	}
	if p.OpenFor < 0 {
		return fmt.Errorf("breaker policy: OpenFor %v is negative", p.OpenFor)
	}
	return nil
}

// BreakerOpenError is returned when an invocation is short-circuited by
// an open circuit breaker. It is retryable — backing off gives the
// breaker time to reach half-open — and nothing was billed.
type BreakerOpenError struct {
	Function string
	// Until is the simulated instant the breaker starts probing.
	Until time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("coordinator: breaker open for %q until %v", e.Function, e.Until)
}

// breaker state machine. Callers hold the deployment's retryMu; time is
// the deployment's best simulated-clock estimate (platform clock plus
// intra-job elapsed), monotone within a job and across a clocked
// serving run.
type breaker struct {
	pol BreakerPolicy

	state       breakerState
	consecFails int
	openedAt    time.Duration

	// Sliding window of recent outcomes for the rate trigger.
	events []breakerEvent
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

type breakerEvent struct {
	at time.Duration
	ok bool
}

// allow reports whether an invocation may proceed at simulated time
// now; when it returns false, until is when probing starts.
func (b *breaker) allow(now time.Duration) (ok bool, until time.Duration) {
	switch b.state {
	case breakerOpen:
		until = b.openedAt + b.pol.openFor()
		if now < until {
			return false, until
		}
		// The invocation being allowed right now is the one probe.
		b.state = breakerHalfOpen
		return true, 0
	case breakerHalfOpen:
		// Nothing else passes until the probe's outcome is recorded.
		return false, b.openedAt + b.pol.openFor()
	}
	return true, 0
}

// record folds one real invocation outcome into the breaker.
func (b *breaker) record(now time.Duration, succeeded bool) {
	b.events = append(b.events, breakerEvent{at: now, ok: succeeded})
	b.pruneWindow(now)
	if succeeded {
		b.consecFails = 0
		if b.state == breakerHalfOpen {
			// The probe succeeded.
			b.state = breakerClosed
		}
		return
	}
	b.consecFails++
	if b.state == breakerHalfOpen {
		// A failed probe re-opens immediately.
		b.trip(now)
		return
	}
	if b.state != breakerClosed {
		return
	}
	if b.pol.ConsecutiveFailures > 0 && b.consecFails >= b.pol.ConsecutiveFailures {
		b.trip(now)
		return
	}
	if b.pol.FailureRate > 0 && len(b.events) >= b.pol.minSamples() {
		fails := 0
		for _, e := range b.events {
			if !e.ok {
				fails++
			}
		}
		if float64(fails)/float64(len(b.events)) >= b.pol.FailureRate {
			b.trip(now)
		}
	}
}

func (b *breaker) trip(now time.Duration) {
	b.state = breakerOpen
	b.openedAt = now
	b.events = b.events[:0]
}

func (b *breaker) pruneWindow(now time.Duration) {
	cut := now - b.pol.window()
	i := 0
	for i < len(b.events) && b.events[i].at < cut {
		i++
	}
	if i > 0 {
		b.events = append(b.events[:0], b.events[i:]...)
	}
}

// hedgeDelay derives the partition's current hedge delay: the
// percentile of its success history once MinSamples have accumulated,
// the fixed fallback before that, jittered from the seeded hedge
// stream. Returns 0 when no delay is available (hedging skipped).
func (d *Deployment) hedgeDelay(p *partition) time.Duration {
	pol := d.cfg.Hedge
	d.retryMu.Lock()
	defer d.retryMu.Unlock()
	base := pol.Delay
	if pol.Percentile > 0 && p.hist.size() >= pol.minSamples() {
		if hp := p.hist.percentile(pol.Percentile); hp > 0 {
			base = hp
		}
	}
	if base <= 0 {
		return 0
	}
	u := d.hedgeRng.Float64()
	return hedgeDelayFrom(base, u)
}

// hedgeAllowed enforces the deployment-wide hedge rate cap. Called with
// retryMu held; the counters cover every primary attempt vs. every
// hedge launched.
func (d *Deployment) hedgeAllowedLocked() bool {
	if d.invokesTotal == 0 {
		return true
	}
	return float64(d.hedgesTotal) < d.cfg.Hedge.maxRate()*float64(d.invokesTotal)
}
