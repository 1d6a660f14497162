// Package faults is the deterministic fault-injection layer for the
// simulated cloud. An Injector draws from a seeded random stream and
// tells each simulator (internal/cloud/lambda, internal/cloud/s3)
// whether a given operation should fail and how: invocation throttles
// (429), transient handler crashes, invocation timeouts, S3 GET/PUT
// unavailability (503) and slow transfers. Because the stream is
// seeded, a run with the same seed, rates and workload injects exactly
// the same faults — experiments and tests are bit-for-bit reproducible.
//
// A nil *Injector, or one with all rates zero, is completely neutral:
// no operation is perturbed, so the fault layer can stay installed in
// every environment without changing fault-free behaviour.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind identifies one injected fault type.
type Kind int

const (
	// None means the operation proceeds unperturbed.
	None Kind = iota
	// Throttle rejects an invocation before any container is assigned
	// (Lambda 429 TooManyRequestsException). Nothing is billed.
	Throttle
	// Crash aborts the handler at the end of its run: the work (and its
	// GB-seconds) are billed, but the response is lost.
	Crash
	// Timeout wedges the invocation after its work completes; the
	// platform detects it only after an additional hang, billing the
	// whole lifetime.
	Timeout
	// Unavailable fails an S3 GET/PUT with a 503 SlowDown error. AWS
	// does not bill 5xx requests, but the failed attempt's lambda time
	// is already spent.
	Unavailable
	// Slow stretches an S3 transfer by SlowFactor. The request succeeds
	// and bills normally; the extra transfer time is billed lambda time.
	Slow
	// DomainOutage fails an invocation because its container's failure
	// domain is down: the platform reaps every container in the domain
	// at once, assignments landing there fail before any work runs
	// (billing nothing), and an invocation executing when its domain
	// goes down is killed partway — the run up to the kill instant
	// bills, the response is lost. The fault is transient (the domain
	// recovers and retries land on surviving domains).
	DomainOutage
	numKinds int = iota
)

var kindNames = [...]string{"none", "throttle", "crash", "timeout", "unavailable", "slow", "domain-outage"}

// String returns the kind's wire name (used in reports and logs).
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Error is the error type every injected fault surfaces as, so callers
// can classify retryability with errors.As.
type Error struct {
	Kind Kind
	// Op names the failed operation ("invoke", "get", "put").
	Op string
	// Target is the function name or object key.
	Target string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s on %s %q", e.Kind, e.Op, e.Target)
}

// Transient reports whether a retry of the same operation can succeed.
// Every injected fault is transient by construction; the method exists
// so callers do not hard-code that assumption.
func (e *Error) Transient() bool { return true }

const (
	// SlowFactor multiplies the transfer time of a Slow fault.
	SlowFactor = 4.0
	// TimeoutHangFactor scales the extra hang an injected Timeout adds
	// on top of the handler's own runtime: the invocation bills up to 2×
	// its work before the platform gives up.
	TimeoutHangFactor = 1.0
)

// Config sets per-operation fault probabilities in [0, 1]. The zero
// value injects nothing.
type Config struct {
	// Seed drives the injector's random stream (0 behaves as seed 1, so
	// the zero value stays usable).
	Seed int64

	// Invocation faults. At most one fires per invocation; the rates
	// are cumulative, so InvokeThrottle+InvokeCrash+InvokeTimeout must
	// be ≤ 1.
	InvokeThrottle float64
	InvokeCrash    float64
	InvokeTimeout  float64

	// Store faults, drawn per GET/PUT. Fail+Slow must be ≤ 1 per op.
	GetFail float64
	GetSlow float64
	PutFail float64
	PutSlow float64

	// Correlated burst mode. When BurstEvery > 0 the injector overlays
	// seeded fault storms on the simulated clock: storm windows of
	// BurstLength recur with exponentially distributed gaps of mean
	// BurstEvery, and while a storm is active every rate above is
	// multiplied by BurstFactor (then renormalized). Operations carry
	// their simulated time into the draw via InvokeFaultAt/StoreFaultAt
	// or the injector clock (SetClock); time-less store draws use offset 0.
	BurstEvery  time.Duration
	BurstLength time.Duration // default BurstEvery/4
	BurstFactor float64       // default 10

	// Failure domains. When Domains > 1 the platform spreads each
	// function's containers round-robin over that many domains, and
	// DomainOutageEvery > 0 overlays whole-domain outage storms on the
	// simulated clock: windows of DomainOutageLength recur with
	// exponentially distributed gaps of mean DomainOutageEvery, each
	// taking down one seeded domain — every container in it is reaped at
	// once and invocations assigned there fail with a transient
	// DomainOutage error until the window closes. The schedule draws
	// from its own derived stream, so per-operation fault draws never
	// move the windows.
	Domains            int
	DomainOutageEvery  time.Duration
	DomainOutageLength time.Duration // default DomainOutageEvery/4
}

// Uniform spreads one overall rate across every fault kind: each
// invocation misbehaves with probability ≈rate (split evenly between
// throttle, crash and timeout) and each store op with probability
// ≈rate (split between 503 and slowdown).
func Uniform(rate float64, seed int64) Config {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return Config{
		Seed:           seed,
		InvokeThrottle: rate / 3,
		InvokeCrash:    rate / 3,
		InvokeTimeout:  rate / 3,
		GetFail:        rate / 2,
		GetSlow:        rate / 2,
		PutFail:        rate / 2,
		PutSlow:        rate / 2,
	}
}

// Injector decides, per operation, whether to inject a fault. All
// methods are safe for concurrent use and safe on a nil receiver
// (which never injects).
type Injector struct {
	mu     sync.Mutex
	cfg    Config // normalized base rates
	burst  Config // boosted rates active inside a storm window
	rng    *rand.Rand
	counts [numKinds]int64
	clock  func() time.Duration

	// Storm schedule, generated lazily and append-only from its own
	// seeded stream so the set of windows is independent of query order.
	stormRng     *rand.Rand
	storms       []stormWindow
	coveredUntil time.Duration

	// Domain-outage schedule, lazy and append-only from a third derived
	// stream for the same order-independence.
	outageRng     *rand.Rand
	outages       []domainOutage
	outageCovered time.Duration
}

type stormWindow struct{ start, end time.Duration }

type domainOutage struct {
	start, end time.Duration
	domain     int
}

// maxStorms caps lazy schedule generation so a query at an absurd
// simulated time cannot allocate unbounded windows; beyond the cap the
// timeline is storm-free.
const maxStorms = 4096

// normalizeGroup scales a group of cumulative rates down proportionally
// when their sum exceeds 1, preserving their relative weights.
func normalizeGroup(ps ...*float64) {
	var sum float64
	for _, p := range ps {
		sum += *p
	}
	if sum > 1 {
		for _, p := range ps {
			*p /= sum
		}
	}
}

// normalizeRates clamps every rate to [0, 1] (NaN to 0) and
// proportionally renormalizes each cumulative group (invoke triple, get
// pair, put pair) whose sum exceeds 1.
func normalizeRates(cfg *Config) {
	clamp := func(p *float64) {
		if !(*p >= 0) {
			*p = 0
		}
		if *p > 1 {
			*p = 1
		}
	}
	for _, p := range []*float64{
		&cfg.InvokeThrottle, &cfg.InvokeCrash, &cfg.InvokeTimeout,
		&cfg.GetFail, &cfg.GetSlow, &cfg.PutFail, &cfg.PutSlow,
	} {
		clamp(p)
	}
	normalizeGroup(&cfg.InvokeThrottle, &cfg.InvokeCrash, &cfg.InvokeTimeout)
	normalizeGroup(&cfg.GetFail, &cfg.GetSlow)
	normalizeGroup(&cfg.PutFail, &cfg.PutSlow)
}

// New builds an injector. Rates are clamped to [0, 1] (NaN to 0), a
// BurstFactor that is not a finite number above 1 takes its default,
// and each cumulative group is proportionally renormalized when its sum
// exceeds 1, so the drawn distribution always matches the relative
// weights the caller asked for.
func New(cfg Config) *Injector {
	normalizeRates(&cfg)
	if cfg.BurstEvery < 0 {
		cfg.BurstEvery = 0
	}
	if cfg.BurstEvery > 0 {
		if cfg.BurstLength <= 0 {
			cfg.BurstLength = cfg.BurstEvery / 4
		}
		if !(cfg.BurstFactor > 1 && cfg.BurstFactor <= math.MaxFloat64) {
			cfg.BurstFactor = 10
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Domains < 0 {
		cfg.Domains = 0
	}
	if cfg.DomainOutageEvery < 0 {
		cfg.DomainOutageEvery = 0
	}
	if cfg.Domains > 1 && cfg.DomainOutageEvery > 0 && cfg.DomainOutageLength <= 0 {
		cfg.DomainOutageLength = cfg.DomainOutageEvery / 4
	}
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	if cfg.Domains > 1 && cfg.DomainOutageEvery > 0 {
		in.outageRng = rand.New(rand.NewSource(seed ^ 0x27D4EB2F165667C5))
	}
	if cfg.BurstEvery > 0 {
		boost := cfg
		for _, p := range []*float64{
			&boost.InvokeThrottle, &boost.InvokeCrash, &boost.InvokeTimeout,
			&boost.GetFail, &boost.GetSlow, &boost.PutFail, &boost.PutSlow,
		} {
			*p *= cfg.BurstFactor
		}
		// Renormalize each group proportionally (no per-rate clamp first:
		// clamping would flatten the caller's relative weights).
		normalizeGroup(&boost.InvokeThrottle, &boost.InvokeCrash, &boost.InvokeTimeout)
		normalizeGroup(&boost.GetFail, &boost.GetSlow)
		normalizeGroup(&boost.PutFail, &boost.PutSlow)
		in.burst = boost
		// The storm schedule has its own derived stream so per-operation
		// draw counts never perturb window placement.
		in.stormRng = rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	}
	return in
}

// SetClock installs a simulated-time source consulted by the time-less
// StoreFault path when burst mode is active. The callback must not call
// back into the component invoking the fault draw while that component
// holds its own lock (pass explicit times via InvokeFaultAt/StoreFaultAt
// in that case).
func (in *Injector) SetClock(now func() time.Duration) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.clock = now
}

// InStorm reports whether simulated time now falls inside a burst
// window. Deterministic for a given seed and configuration.
func (in *Injector) InStorm(now time.Duration) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.inStormLocked(now)
}

func (in *Injector) inStormLocked(now time.Duration) bool {
	if in.stormRng == nil || now < 0 {
		return false
	}
	for in.coveredUntil <= now && len(in.storms) < maxStorms {
		gap := time.Duration(in.stormRng.ExpFloat64() * float64(in.cfg.BurstEvery))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		start := in.coveredUntil + gap
		end := start + in.cfg.BurstLength
		if start < in.coveredUntil || end < start { // overflow guard
			in.coveredUntil = 1<<63 - 1
			break
		}
		in.storms = append(in.storms, stormWindow{start, end})
		in.coveredUntil = end
	}
	i := sort.Search(len(in.storms), func(i int) bool { return in.storms[i].end > now })
	return i < len(in.storms) && in.storms[i].start <= now
}

// Domains reports how many failure domains the injector spreads
// containers over (0 when domain tagging is disabled). Nil-safe.
func (in *Injector) Domains() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Domains > 1 {
		return in.cfg.Domains
	}
	return 0
}

// DomainOutageAt reports whether a failure domain is down at simulated
// time now, and which one. start identifies the outage window (unique
// per outage), so callers can reap the domain's containers exactly once
// per window. Deterministic for a given seed and configuration.
func (in *Injector) DomainOutageAt(now time.Duration) (domain int, start time.Duration, active bool) {
	if in == nil {
		return 0, 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.outageRng == nil || now < 0 {
		return 0, 0, false
	}
	in.extendOutagesLocked(now)
	i := sort.Search(len(in.outages), func(i int) bool { return in.outages[i].end > now })
	if i < len(in.outages) && in.outages[i].start <= now {
		o := in.outages[i]
		return o.domain, o.start, true
	}
	return 0, 0, false
}

// extendOutagesLocked lazily grows the append-only outage schedule to
// cover simulated time now. Callers hold in.mu and have checked
// outageRng is non-nil.
func (in *Injector) extendOutagesLocked(now time.Duration) {
	for in.outageCovered <= now && len(in.outages) < maxStorms {
		gap := time.Duration(in.outageRng.ExpFloat64() * float64(in.cfg.DomainOutageEvery))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		s := in.outageCovered + gap
		e := s + in.cfg.DomainOutageLength
		if s < in.outageCovered || e < s { // overflow guard
			in.outageCovered = 1<<63 - 1
			break
		}
		in.outages = append(in.outages, domainOutage{
			start: s, end: e, domain: in.outageRng.Intn(in.cfg.Domains),
		})
		in.outageCovered = e
	}
}

// DomainKillAt reports whether an outage of the given domain begins in
// (from, to] — the case that takes a container down mid-execution. It
// returns the kill instant (the outage start): the invocation's work up
// to that point is spent but its response is lost. Deterministic and
// append-only like DomainOutageAt, so probing future instants perturbs
// nothing.
func (in *Injector) DomainKillAt(domain int, from, to time.Duration) (time.Duration, bool) {
	if in == nil {
		return 0, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.outageRng == nil || to <= from {
		return 0, false
	}
	in.extendOutagesLocked(to)
	i := sort.Search(len(in.outages), func(i int) bool { return in.outages[i].start > from })
	for ; i < len(in.outages) && in.outages[i].start <= to; i++ {
		if in.outages[i].domain == domain {
			return in.outages[i].start, true
		}
	}
	return 0, false
}

// DomainOutageWindow is one scheduled whole-domain outage.
type DomainOutageWindow struct {
	Start, End time.Duration
	Domain     int
}

// DomainOutages returns the outage schedule covering [0, until]. The
// schedule is generated from its own derived stream, append-only and
// query-order independent, so reading it ahead of time perturbs
// nothing — experiments use it to place phase boundaries around storms.
func (in *Injector) DomainOutages(until time.Duration) []DomainOutageWindow {
	if in == nil {
		return nil
	}
	// Extend lazy coverage through until.
	in.DomainOutageAt(until)
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []DomainOutageWindow
	for _, o := range in.outages {
		if o.start > until {
			break
		}
		out = append(out, DomainOutageWindow{Start: o.start, End: o.end, Domain: o.domain})
	}
	return out
}

// NoteDomainFault records one invocation failed by a domain outage in
// the injector's fault counts.
func (in *Injector) NoteDomainFault() {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[DomainOutage]++
}

// activeLocked picks the rate set in force at simulated time now.
func (in *Injector) activeLocked(now time.Duration) *Config {
	if in.stormRng != nil && in.inStormLocked(now) {
		return &in.burst
	}
	return &in.cfg
}

// clockNow reads the installed clock without holding in.mu, so the
// callback may freely take other component locks.
func (in *Injector) clockNow() time.Duration {
	in.mu.Lock()
	clock := in.clock
	in.mu.Unlock()
	if clock == nil {
		return 0
	}
	return clock()
}

// InvokeFaultAt decides the fate of one invocation of target at
// simulated time now. When it returns Timeout, hang is the extra
// lifetime factor to add on top of the handler's runtime. The caller
// passes the time because it holds its own locks while drawing (the
// lambda platform passes its clocked-mode offset directly).
func (in *Injector) InvokeFaultAt(target string, now time.Duration) (k Kind, hang float64) {
	if in == nil {
		return None, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.activeLocked(now)
	if c.InvokeThrottle == 0 && c.InvokeCrash == 0 && c.InvokeTimeout == 0 {
		return None, 0
	}
	u := in.rng.Float64()
	switch {
	case u < c.InvokeThrottle:
		k = Throttle
	case u < c.InvokeThrottle+c.InvokeCrash:
		k = Crash
	case u < c.InvokeThrottle+c.InvokeCrash+c.InvokeTimeout:
		k = Timeout
		hang = TimeoutHangFactor
	default:
		return None, 0
	}
	in.counts[k]++
	return k, hang
}

// StoreFault decides the fate of one store operation; op is "get" or
// "put". When it returns Slow, factor is the transfer-time multiplier.
// In burst mode it consults the injector clock for the simulated time.
func (in *Injector) StoreFault(op, key string) (k Kind, factor float64) {
	if in == nil {
		return None, 1
	}
	return in.StoreFaultAt(op, key, in.clockNow())
}

// StoreFaultAt is StoreFault with an explicit simulated time.
func (in *Injector) StoreFaultAt(op, key string, now time.Duration) (k Kind, factor float64) {
	if in == nil {
		return None, 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	c := in.activeLocked(now)
	var fail, slow float64
	if op == "get" {
		fail, slow = c.GetFail, c.GetSlow
	} else {
		fail, slow = c.PutFail, c.PutSlow
	}
	if fail == 0 && slow == 0 {
		return None, 1
	}
	u := in.rng.Float64()
	switch {
	case u < fail:
		k = Unavailable
	case u < fail+slow:
		k = Slow
		factor = SlowFactor
	default:
		return None, 1
	}
	in.counts[k]++
	return k, factor
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var t int64
	for _, n := range in.counts {
		t += n
	}
	return t
}

// IsTransient reports whether err (anywhere in its chain) is an
// injected fault that a retry can clear. It asks the *Error that
// errors.As would find — the first in a depth-first walk through
// Unwrap() error and Unwrap() []error; no error here has an As method —
// without the heap-allocated target errors.As needs, since the retry
// loop asks on every failed attempt.
func IsTransient(err error) bool {
	fe, ok := firstFault(err)
	return ok && fe.Transient()
}

func firstFault(err error) (*Error, bool) {
	for {
		switch e := err.(type) {
		case *Error:
			return e, true
		case interface{ Unwrap() error }:
			err = e.Unwrap()
		case interface{ Unwrap() []error }:
			for _, c := range e.Unwrap() {
				if fe, ok := firstFault(c); ok {
					return fe, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
}
