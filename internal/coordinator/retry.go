package coordinator

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/obs"
)

// faultOf extracts the injected fault from an error chain, or nil.
func faultOf(err error) *faults.Error {
	var fe *faults.Error
	if errors.As(err, &fe) {
		return fe
	}
	return nil
}

// RetryPolicy makes job runs resilient to transient platform faults
// (see internal/cloud/faults): failed partition invocations and input
// uploads are retried with exponential backoff and deterministic
// jitter: 200 ms doubling to a 10 s cap (EqualJitter). The zero value
// disables retries — the coordinator aborts on the first error, its
// pre-fault-layer behaviour.
type RetryPolicy struct {
	// MaxAttempts caps attempts per operation (per partition
	// invocation or input upload). Values ≤ 1 disable retries.
	MaxAttempts int
	// JitterSeed seeds the deterministic equal-jitter stream, so a
	// deployment replays identical backoff waits run over run (0
	// behaves as seed 1).
	JitterSeed int64
}

// DefaultRetryPolicy is a sensible production-style policy: up to 4
// attempts per operation, 200 ms → 10 s equal-jitter backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, JitterSeed: 1}
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

const (
	retryBaseBackoff = 200 * time.Millisecond
	retryMaxBackoff  = 10 * time.Second
)

// EqualJitter is the equal-jitter wait before retry number n (1-based):
// the window w = base·2^(n−1), capped at max, waits w/2 plus u·w/2 for a
// uniform draw u in [0, 1). The coordinator's retries and the serving
// scheduler's admission retries both back off through it.
func EqualJitter(base, max time.Duration, n int, u float64) time.Duration {
	w := float64(base)
	for i := 1; i < n; i++ {
		w *= 2
		if w >= float64(max) {
			w = float64(max)
			break
		}
	}
	return time.Duration(w/2 + u*w/2)
}

// backoff returns the wait before retry number n (1-based), its jitter
// drawn from the deployment's seeded stream.
func (d *Deployment) backoff(n int) time.Duration {
	d.retryMu.Lock()
	u := d.retryRng.Float64()
	d.retryMu.Unlock()
	return EqualJitter(retryBaseBackoff, retryMaxBackoff, n, u)
}

// retryStep records one failed attempt: what executed (nil when the
// attempt was rejected before running, e.g. a throttle, failed PUT, or
// breaker short-circuit), the fault that felled it, the backoff waited
// before the next attempt, and the exact charges the attempt billed. A
// non-nil hedge describes the speculative duplicate that shadowed this
// failed attempt (both lost).
type retryStep struct {
	res     *lambda.Result
	fault   string
	backoff time.Duration
	bucket  *obs.CostBucket
	hedge   *hedgeRec
}

// hedgeRec describes one side of a hedged invocation pair that did not
// win: either the speculative duplicate (cancelled or failed), or —
// when the hedge won — the cancelled primary.
type hedgeRec struct {
	// delay is the offset from the attempt's dispatch to the shadow's
	// dispatch: the jittered hedge delay for a speculative duplicate, 0
	// for a cancelled primary.
	delay time.Duration
	// billed is the settled billed duration: cancellation bills a loser
	// only up to the winner's finish.
	billed time.Duration
	fault  string // the shadow's own fault, or "cancelled"
	bucket *obs.CostBucket
}

// retryInfo accumulates what one operation's retries cost.
type retryInfo struct {
	attempts int
	faults   int // failed attempts that carried a fault
	backoff  time.Duration
	// wasted is the simulated time failed attempts spent executing.
	wasted time.Duration

	// Hedging record: speculative duplicates launched/won for this
	// operation, the serial time a winning hedge added in front of the
	// winner's work (its delay + dispatch), and the execution spend on
	// cancelled/failed shadows.
	hedges        int
	hedgeWins     int
	hedgeExtra    time.Duration
	wastedCost    float64
	hedgeWon      bool      // the returned result came from the hedge
	finalHedge    *hedgeRec // the final attempt's losing shadow, if any
	shortCircuits int       // attempts consumed by an open breaker
	budgetDenied  int       // retries/hedges skipped by the global budget

	// Trace material: the failed attempts in order, the successful
	// attempt's charges, and the storage-held-through-retries charge.
	steps       []retryStep
	finalBucket *obs.CostBucket
	holdBucket  *obs.CostBucket
}

// retries is how many times the operation was re-attempted. An
// operation that failed fast before its first attempt — the job's
// deadline was already spent — ran nothing and retried nothing.
func (ri *retryInfo) retries() int { return max(ri.attempts-1, 0) }

// delay is the extra wall-clock the retries added in front of the
// successful attempt's work: failed execution time, backoff waits, one
// dispatch per re-invocation, and — when the hedge won — the hedge
// delay plus its dispatch.
func (ri *retryInfo) delay() time.Duration {
	// attempts-1, not retries(): the zero-attempt fail-fast above comes
	// out one dispatch latency negative. That is a quirk, not a design —
	// but the staged scheduler frees the failing stage's slot at
	// now+delay, and a failed job's Elapsed (whole or staged) counts it,
	// so clamping it here would move simulated timelines.
	return ri.wasted + ri.backoff + time.Duration(ri.attempts-1)*invokeDispatchLatency + ri.hedgeExtra
}

// lazyError wraps cause under a message — format takes n, then the
// cause — built only when read: a storm fails thousands of operations
// whose text nobody prints.
type lazyError struct {
	format string
	n      int
	cause  error
}

func (e *lazyError) Error() string { return fmt.Sprintf(e.format, e.n, e.cause) }
func (e *lazyError) Unwrap() error { return e.cause }

// retryGate decides, after a failed attempt, whether the operation
// retries or stops. On stop it returns the final error; on retry it
// draws the backoff onto ri/step. opDelay is the serial time the
// operation has already committed, redispatch the extra latency the
// next attempt would pay up front — together with the drawn backoff
// they must still fit in the job's deadline, or the operation fails
// fast with a typed DeadlineError instead of retrying blind.
func (j *job) retryGate(ri *retryInfo, step *retryStep, err error, opKind, opName string, retryable bool, opDelay, redispatch time.Duration) (stop bool, ferr error) {
	d := j.d
	if !d.cfg.Retry.enabled() || !retryable {
		return true, err
	}
	if ri.attempts >= d.cfg.Retry.MaxAttempts {
		return true, &lazyError{"gave up after %d attempts: %v", ri.attempts, err}
	}
	bo := d.backoff(ri.attempts)
	if j.deadlined() && j.elapsed+opDelay+bo+redispatch >= j.deadline {
		return true, &DeadlineError{Op: opKind + opName, Deadline: j.deadline, Elapsed: j.elapsed + opDelay, Cause: err}
	}
	// The deployment-wide token bucket is the last gate, so tokens map
	// one-to-one onto retries that actually run: when it is empty the
	// retry is skipped entirely — no wait, no further attempt, nothing
	// billed — and a fault storm cannot amplify itself through retries
	// (see BudgetPolicy).
	if !d.spendRetryToken() {
		ri.budgetDenied++
		d.noteBudgetDenied(d.jh.deniedRetry)
		return true, &BudgetExhaustedError{Op: opKind + opName, Attempts: ri.attempts, Cause: err}
	}
	ri.backoff += bo
	step.backoff = bo
	return false, nil
}

// breakerNow estimates the current simulated instant for breaker
// decisions: the job start plus the job's committed serial time and the
// operation's retries so far.
func (j *job) breakerNow(ri *retryInfo) time.Duration {
	return j.t0 + j.elapsed + ri.delay()
}

// invokeWithRetry runs one partition invocation under the resilience
// policies. Failed-but-executed attempts are billed — under deferred
// billing (eager mode, or whenever hedging is on) their execution is
// settled immediately at the attempt's own duration, because a crashed
// or timed-out container never participates in the overlapped
// schedule. Intermediates held in S3 during failed attempts and
// backoff waits are also charged. With hedging enabled, an attempt
// that outlives the partition's hedge delay is shadowed by a
// speculative duplicate; the first success wins and the loser is
// cancelled, billed only up to the winner's finish. An open circuit
// breaker short-circuits attempts without touching the platform.
func (j *job) invokeWithRetry(p *partition) (*lambda.Result, retryInfo, error) {
	d, tr := j.d, j.tr
	fnName, payload := p.fnName, j.payloads[p.index]
	hedging := d.cfg.Hedge.enabled()
	eager := j.sched == scheduleEager
	deferred := eager || hedging
	var ri retryInfo
	if j.deadlined() && j.elapsed >= j.deadline {
		return nil, ri, &DeadlineError{Op: "invoke " + fnName, Deadline: j.deadline, Elapsed: j.elapsed}
	}
	for {
		// Circuit-breaker gate: an open breaker consumes the attempt
		// without invoking (nothing billed); backing off gives it time to
		// reach half-open.
		if p.brk != nil {
			bnow := j.breakerNow(&ri)
			d.retryMu.Lock()
			bprev := p.brk.state
			allowed, until := p.brk.allow(bnow)
			bcur := p.brk.state
			d.retryMu.Unlock()
			if bcur != bprev {
				d.noteBreakerTransition(p, bcur, bnow)
			}
			if !allowed {
				ri.attempts++
				ri.shortCircuits++
				ri.faults++
				step := retryStep{fault: "breaker-open"}
				err := &BreakerOpenError{Function: fnName, Until: until}
				stop, ferr := j.retryGate(&ri, &step, err, "invoke ", fnName, true, ri.delay(), invokeDispatchLatency)
				ri.steps = append(ri.steps, step)
				if stop {
					return nil, ri, ferr
				}
				continue
			}
		}
		ri.attempts++
		if hedging {
			d.retryMu.Lock()
			d.invokesTotal++
			d.retryMu.Unlock()
		}
		bucket := tr.NewBucket()
		prev := tr.SetSink(bucket)
		res, err := d.cfg.Platform.Invoke(fnName, payload, lambda.InvokeOptions{DeferBilling: deferred})
		tr.SetSink(prev)

		// Hedge decision: only an attempt that actually executed has a
		// timeline to outlive the hedge delay (a throttle rejects at
		// dispatch, before any timer could fire).
		var hres *lambda.Result
		var herr error
		var hbucket *obs.CostBucket
		var hdelay time.Duration
		hedged := false
		if hedging && res != nil {
			hdelay = d.hedgeDelay(p)
			if hdelay > 0 && res.Duration > hdelay && d.takeHedgeSlot() {
				hedged = true
				ri.hedges++
				p.h.tsHedgesFired.Inc(j.breakerNow(&ri), 1)
				hbucket = tr.NewBucket()
				d.chargeInto(hbucket, func() { hres, herr = d.cfg.Platform.Invoke(fnName, payload, lambda.InvokeOptions{DeferBilling: true}) })
			}
		}

		if hedged {
			var out *lambda.Result
			var hstep *retryStep
			out, err, hstep = d.resolveHedge(&ri, res, err, hres, herr, hdelay, bucket, hbucket)
			if hstep == nil {
				// One side won; the success path below takes over.
				res, err = out, nil
				if ri.hedgeWon {
					bucket = hbucket
					p.h.tsHedgesWon.Inc(j.breakerNow(&ri), 1)
				}
			} else {
				// Both sides failed: one combined failed attempt.
				d.recordOutcome(p, j.breakerNow(&ri), false)
				stop, ferr := j.retryGate(&ri, hstep, err, "invoke ", fnName, faults.IsTransient(err), ri.delay(), invokeDispatchLatency)
				ri.steps = append(ri.steps, *hstep)
				if stop {
					return nil, ri, ferr
				}
				continue
			}
		}

		if err == nil {
			if deferred && !eager {
				// Sequential mode under hedging defers billing (the winner
				// was unknowable at invoke time); settle the winner at its
				// own duration now, into its attempt's charges.
				d.chargeInto(bucket, func() {
					d.cfg.Platform.SettleExecution(res.MemoryMB, res.Duration)
				})
			}
			d.recordOutcome(p, j.breakerNow(&ri), true)
			d.recordLatency(p, res.Duration)
			if ri.attempts == 1 && ri.hedges == 0 {
				// A clean first-attempt success earns the budget back:
				// healthy traffic replenishes what storms spend.
				d.earnBudgetToken()
			}
			ri.finalBucket = bucket
			if hold := ri.wasted + ri.backoff + ri.hedgeExtra; hold > 0 {
				// Upstream intermediates sat in S3 through the failed
				// attempts and backoff waits; that storage time bills.
				ri.holdBucket = tr.NewBucket()
				d.chargeInto(ri.holdBucket, func() { d.cfg.Store.ChargeStorage(j.prevBytes, hold) })
			}
			return res, ri, nil
		}

		step := retryStep{res: res, bucket: bucket}
		if res != nil {
			// The attempt executed before failing: its time is spent and,
			// under deferred billing, must still be settled.
			ri.wasted += res.Duration
			ri.wastedCost += res.Cost
			if deferred {
				d.chargeInto(bucket, func() {
					ri.wastedCost += d.cfg.Platform.SettleExecution(res.MemoryMB, res.Duration)
				})
			}
			step.fault = res.InjectedFault
			if step.fault == "" {
				step.fault = "error"
			}
		} else if fe := faultOf(err); fe != nil {
			step.fault = fe.Kind.String()
		}
		if step.fault != "" {
			ri.faults++
		}
		d.recordOutcome(p, j.breakerNow(&ri), false)
		stop, ferr := j.retryGate(&ri, &step, err, "invoke ", fnName, faults.IsTransient(err), ri.delay(), invokeDispatchLatency)
		ri.steps = append(ri.steps, step)
		if stop {
			return nil, ri, ferr
		}
	}
}

// resolveHedge settles a hedged invocation pair. When either side
// succeeded it returns the winner (hstep nil) after cancelling and
// billing the loser; when both failed it returns the combined failed
// attempt as hstep for the retry loop.
func (d *Deployment) resolveHedge(ri *retryInfo, res *lambda.Result, err error, hres *lambda.Result, herr error, hdelay time.Duration, bucket, hbucket *obs.CostBucket) (*lambda.Result, error, *retryStep) {
	primOK := err == nil
	hedgeOK := herr == nil
	primFinish := res.Duration
	hedgeStart := hdelay + invokeDispatchLatency
	hedgeFinish := hedgeStart
	if hres != nil {
		hedgeFinish += hres.Duration
	}
	primFault := faultLabel(res, err)
	hedgeFault := faultLabel(hres, herr)

	switch {
	case primOK && (!hedgeOK || primFinish <= hedgeFinish):
		// Primary wins (ties go to the primary). Cancel the hedge at the
		// primary's finish: it bills only the time it actually ran before
		// cancellation.
		rec := &hedgeRec{delay: hdelay, fault: "cancelled", bucket: hbucket}
		if hres != nil {
			rec.billed = clampDur(primFinish-hedgeStart, 0, hres.Duration)
			ri.wastedCost += hres.Cost
			d.chargeInto(hbucket, func() {
				ri.wastedCost += d.cfg.Platform.SettleExecution(hres.MemoryMB, rec.billed)
			})
		}
		if !hedgeOK {
			rec.fault = hedgeFault
			if hedgeFinish <= primFinish {
				// The hedge genuinely failed before cancellation; that
				// outcome is real signal for the breaker.
				ri.faults++
			}
		}
		ri.finalHedge = rec
		return res, nil, nil

	case hedgeOK:
		// Hedge wins: the primary is cancelled at the hedge's finish and
		// billed only up to it. The winner's work effectively started
		// hedgeStart after the attempt's dispatch — serial time the
		// schedule (and billing settlement) must account for.
		rec := &hedgeRec{delay: 0, fault: "cancelled", bucket: bucket}
		if res != nil {
			rec.billed = clampDur(hedgeFinish, 0, res.Duration)
			ri.wastedCost += res.Cost
			d.chargeInto(bucket, func() {
				ri.wastedCost += d.cfg.Platform.SettleExecution(res.MemoryMB, rec.billed)
			})
		}
		if !primOK {
			rec.fault = primFault
			ri.faults++
		}
		ri.hedgeWins++
		ri.hedgeWon = true
		ri.hedgeExtra += hedgeStart
		ri.finalHedge = rec
		return hres, nil, nil
	}

	// Both failed: settle both sides at their full durations (nothing to
	// cancel against) and hand the combined attempt to the retry loop.
	if res != nil {
		ri.wasted += res.Duration
		ri.wastedCost += res.Cost
		d.chargeInto(bucket, func() {
			ri.wastedCost += d.cfg.Platform.SettleExecution(res.MemoryMB, res.Duration)
		})
	}
	hrec := &hedgeRec{delay: hdelay, fault: hedgeFault, bucket: hbucket}
	if hres != nil {
		hrec.billed = hres.Duration
		ri.wastedCost += hres.Cost
		d.chargeInto(hbucket, func() {
			ri.wastedCost += d.cfg.Platform.SettleExecution(hres.MemoryMB, hres.Duration)
		})
	}
	if primFault != "" {
		ri.faults++
	}
	if hedgeFault != "" {
		ri.faults++
	}
	step := &retryStep{res: res, fault: primFault, bucket: bucket, hedge: hrec}
	return nil, err, step
}

// faultLabel names the fault that felled an invocation attempt ("" on
// success).
func faultLabel(res *lambda.Result, err error) string {
	if err == nil {
		return ""
	}
	if res != nil {
		if res.InjectedFault != "" {
			return res.InjectedFault
		}
		return "error"
	}
	if fe := faultOf(err); fe != nil {
		return fe.Kind.String()
	}
	return "error"
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// chargeInto runs f with the tracer sink pointed at bucket: a billed
// operation's cost bracket. A nil bucket (a pooled job, or no tracer)
// runs f without touching the sink.
func (d *Deployment) chargeInto(b *obs.CostBucket, f func()) {
	if b == nil {
		f()
		return
	}
	prev := d.cfg.Tracer.SetSink(b)
	f()
	d.cfg.Tracer.SetSink(prev)
}

// takeHedgeSlot claims one hedge under the deployment-wide rate cap,
// the brownout hedge override, and the global retry budget: a skipped
// hedge is not an error — the primary attempt keeps running — but an
// empty bucket means no speculative duplicate is launched.
func (d *Deployment) takeHedgeSlot() bool {
	d.retryMu.Lock()
	if d.hedgeOff || !d.hedgeAllowedLocked() {
		d.retryMu.Unlock()
		return false
	}
	if !d.spendBudgetLocked() {
		d.retryMu.Unlock()
		d.noteBudgetDenied(d.jh.deniedHedge)
		return false
	}
	d.hedgesTotal++
	d.retryMu.Unlock()
	return true
}

// noteBudgetDenied publishes one budget denial: a counter labeled with
// what was denied, plus a window-stream gauge of the remaining balance.
func (d *Deployment) noteBudgetDenied(kind obs.EventCounter) {
	d.retryMu.Lock()
	tokens := d.budgetTokens
	d.retryMu.Unlock()
	at := d.cfg.Platform.Now()
	kind.Inc(at, 1)
	d.jh.tsBudgetTokens.Set(at, tokens)
}

// recordOutcome feeds one real invocation outcome to the partition's
// breaker at simulated time now.
func (d *Deployment) recordOutcome(p *partition, now time.Duration, ok bool) {
	if p.brk == nil {
		return
	}
	d.retryMu.Lock()
	bprev := p.brk.state
	p.brk.record(now, ok)
	bcur := p.brk.state
	d.retryMu.Unlock()
	if bcur != bprev {
		d.noteBreakerTransition(p, bcur, now)
	}
}

// noteBreakerTransition publishes one breaker state change at simulated
// instant at: a counter labeled with the state entered, plus a window-
// stream gauge encoding the state (0=closed, 1=open, 2=half-open).
func (d *Deployment) noteBreakerTransition(p *partition, to breakerState, at time.Duration) {
	p.h.transitions[to].Inc(at, 1)
	p.h.tsBreakerState.Set(at, float64(to))
}

// recordLatency feeds one successful attempt duration to the
// partition's hedge-delay history.
func (d *Deployment) recordLatency(p *partition, dur time.Duration) {
	if !d.cfg.Hedge.enabled() {
		return
	}
	d.retryMu.Lock()
	p.hist.add(dur)
	d.retryMu.Unlock()
}

// putWithRetry uploads the job input under the retry policy, recording
// the operation in j.upInfo. A failed PUT costs no money (5xx requests
// are not billed) but each retry waits out a backoff, which the caller
// folds into completion time — and which must still fit in the job's
// deadline.
func (j *job) putWithRetry(data []byte) (time.Duration, error) {
	d, tr, ri := j.d, j.tr, &j.upInfo
	if j.deadlined() && j.elapsed >= j.deadline {
		return 0, &DeadlineError{Op: "put " + j.inKey, Deadline: j.deadline, Elapsed: j.elapsed}
	}
	for {
		ri.attempts++
		bucket := tr.NewBucket()
		var dur time.Duration
		var err error
		d.chargeInto(bucket, func() {
			if d.stablePut != nil {
				// The encoded input is immutable for the object's lifetime
				// (a cached zero encoding, or a fresh encoding only this
				// job holds), so the store may retain the slice without a
				// copy.
				dur, err = d.stablePut.PutStable(j.inKey, data)
			} else {
				dur, err = d.cfg.Store.Put(j.inKey, data)
			}
		})
		if err == nil {
			if ri.attempts == 1 {
				d.earnBudgetToken()
			}
			ri.finalBucket = bucket
			return dur, nil
		}
		step := retryStep{bucket: bucket}
		if fe := faultOf(err); fe != nil {
			ri.faults++
			step.fault = fe.Kind.String()
		}
		stop, ferr := j.retryGate(ri, &step, err, "put ", j.inKey, faults.IsTransient(err), ri.backoff, 0)
		ri.steps = append(ri.steps, step)
		if stop {
			return 0, ferr
		}
	}
}

func (d *Deployment) initRetryRng() {
	seed := d.cfg.Retry.JitterSeed
	if seed == 0 {
		seed = 1
	}
	d.retryRng = rand.New(rand.NewSource(seed))
	hseed := d.cfg.Hedge.JitterSeed
	if hseed == 0 {
		hseed = 1
	}
	d.hedgeRng = rand.New(rand.NewSource(hseed))
}
