// Package lambda simulates the 2020 AWS Lambda platform the paper
// deploys on: function creation with deployment-package and function-
// layer size validation, memory blocks from 128 MB to 3008 MB in 64 MB
// steps, CPU share proportional to memory, a 512 MB /tmp quota, a 900 s
// execution timeout, cold/warm container state, and GB-second billing.
//
// Handlers execute real Go code (the coordinator runs actual forward
// passes) while simulated time advances through the invocation Context;
// wall-clock time is decoupled from billed time.
package lambda

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/obs"
	"ampsinf/internal/perf"
	"ampsinf/internal/sim"
)

// Handler is the function entry point. It receives the invocation
// context (which meters simulated time and /tmp usage) and the payload,
// and returns the response payload.
type Handler func(ctx *Context, payload []byte) ([]byte, error)

// LayerRef is a function layer attached to a function (the paper pulls
// the 169 MB dependency bundle and model files in through layers).
type LayerRef struct {
	Name      string
	SizeBytes int64
}

// FunctionConfig describes a function to create.
type FunctionConfig struct {
	Name string
	// MemoryMB must be a valid block under the platform's quota
	// (128 + k·64 ≤ 3008 on the paper's 2020 platform).
	MemoryMB int
	// PackageBytes is the unzipped deployment-package size (code +
	// weights bundled directly).
	PackageBytes int64
	// Layers are attached function layers (≤ 5; sizes count toward the
	// 250 MB unzipped limit).
	Layers  []LayerRef
	Handler Handler
	// Timeout defaults to the platform maximum.
	Timeout time.Duration
}

// Function is a deployed function with its warm-container pool.
type Function struct {
	cfg  *FunctionConfig // never written after CreateFunction
	pool []*container
	// busyUntil mirrors pool[i].busyUntil densely, so the idle search and
	// the in-flight scan read one array instead of chasing every
	// container; pool and mirror are only ever changed together (see
	// pool.go). live bounds the scan: every container at index ≥ live was
	// seen idle at some past clock reading and has not been acquired
	// since, so — the clock never retreats — it is idle at any instant
	// from now on. Acquisition takes the lowest idle index, which keeps
	// the busy ones in front and the long tail of a burst's leftovers
	// behind live.
	busyUntil []time.Duration
	live      int
	nextID    int
	// h holds the function-labelled time-series handles, formatted once
	// at registration and replaced, never written, when the series is
	// swapped (see handles.go).
	h *fnHandles
}

// Platform is a simulated Lambda region.
type Platform struct {
	meter *billing.Meter
	perf  perf.Params
	quota pricing.Quota

	mu     sync.Mutex
	fns    map[string]*Function
	fnList []*Function // the values of fns in creation order, for scans
	inj    *faults.Injector
	mx     *obs.Metrics
	series *obs.TimeSeries

	// Failure domains (see faults.Config.Domains): fresh containers are
	// tagged round-robin over domains; lastOutage remembers the start of
	// the outage window whose containers were already reaped, so each
	// storm purges exactly once.
	domains    int
	lastOutage time.Duration

	// Clocked serving state (see pool.go): the simulated clock, whether
	// pooled/clocked semantics are on, and the account concurrency
	// override (0 = quota default).
	clocked     bool
	clock       sim.Clock
	now         atomic.Int64 // clock's reading, republished on every advance for Now
	concurrency int

	// O(1) in-flight accounting (clocked mode): busy counts containers
	// whose busyUntil exceeds the clock (executing included), expiry
	// holds their pending idle transitions, and registry maps container
	// slots to live containers (nil once discarded) so stale expiry
	// events can be skipped. See pool.go.
	busy     int
	expiry   sim.Heap
	registry []*container

	// h is the current immutable table of pre-resolved telemetry handles
	// for mx and series, republished under mu when either registry is
	// swapped or a new phase or fault name appears (see handles.go).
	h atomic.Pointer[platformHandles]

	// resPool and ctxPool recycle invocation Results and Contexts for
	// callers that hand Results back through RecycleResult; callers that
	// never recycle simply drop Results to the GC as before.
	resPool sync.Pool
	ctxPool sync.Pool
}

// New creates a platform charging into meter with the given performance
// model, under the paper's 2020 quotas.
func New(meter *billing.Meter, p perf.Params) *Platform {
	return NewWithQuota(meter, p, pricing.Quota2020())
}

// NewWithQuota creates a platform under explicit quotas (e.g.
// pricing.Quota2021 for the December 2020 update the paper names as
// future work).
func NewWithQuota(meter *billing.Meter, p perf.Params, q pricing.Quota) *Platform {
	pl := &Platform{meter: meter, perf: p, quota: q, fns: make(map[string]*Function)}
	pl.rebuildHandlesLocked()
	return pl
}

// SetInjector installs (or, with nil, removes) the platform's fault
// injector. Invocations consult it for throttles, crashes, timeouts
// and domain outages; a nil or zero-rate injector leaves every
// invocation untouched.
func (pl *Platform) SetInjector(inj *faults.Injector) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.inj = inj
	pl.domains = inj.Domains()
	pl.lastOutage = -1
}

// SetMetrics installs (or, with nil, removes) the metrics registry the
// platform updates as it serves invocations (invocation/cold-start/
// fault counters, per-phase latency histograms, GB-seconds).
func (pl *Platform) SetMetrics(mx *obs.Metrics) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.mx = mx
	pl.rebuildHandlesLocked()
}

// SetSeries installs (or, with nil, removes) the windowed time-series
// stream the platform feeds per-invocation activity into (invocations,
// cold starts, faults, per-function pool occupancy, account in-flight)
// on the simulated clock. Meant for clocked serving mode, where the
// single-threaded event loop keeps window contents deterministic.
func (pl *Platform) SetSeries(ts *obs.TimeSeries) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.series = ts
	pl.rebuildHandlesLocked()
}

// Quota returns the platform's limits.
func (pl *Platform) Quota() pricing.Quota { return pl.quota }

// Perf returns the platform's performance model.
func (pl *Platform) Perf() perf.Params { return pl.perf }

// Meter returns the platform's billing meter.
func (pl *Platform) Meter() *billing.Meter { return pl.meter }

// ResetWarm discards the named function's idle warm containers, so its
// next invocation cold-starts. Containers still executing on the
// simulated clock survive — a mid-flight invocation cannot lose its
// sandbox (crashed sandboxes are reaped individually via
// discardContainer instead).
func (pl *Platform) ResetWarm(name string) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	fn, ok := pl.fns[name]
	if !ok {
		return
	}
	kept := 0
	for _, c := range fn.pool {
		if pl.clocked && c.busyUntil > pl.clock.Now() {
			fn.pool[kept], fn.busyUntil[kept] = c, c.busyUntil
			kept++
		} else {
			// Discarded idle containers were not counted in-flight, so
			// busy is untouched; their registry slots are released.
			pl.unregisterLocked(c)
		}
	}
	clear(fn.pool[kept:])
	fn.pool, fn.busyUntil, fn.live = fn.pool[:kept], fn.busyUntil[:kept], kept
}

// ValidMemory reports whether memMB is an allocatable 2020 memory block.
func ValidMemory(memMB int) bool {
	return pricing.Quota2020().ValidMemory(memMB)
}

// CreateFunction validates cfg against the platform quotas and registers
// the function. It fails if a function with the same name exists.
func (pl *Platform) CreateFunction(cfg FunctionConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("lambda: function needs a name")
	}
	if !pl.quota.ValidMemory(cfg.MemoryMB) {
		return fmt.Errorf("lambda: invalid memory %d MB (blocks are %d..%d step %d)",
			cfg.MemoryMB, pl.quota.MinMemoryMB, pl.quota.MaxMemoryMB, pl.quota.MemoryStepMB)
	}
	if len(cfg.Layers) > pl.quota.MaxLayers {
		return fmt.Errorf("lambda: %d layers exceeds the %d-layer limit", len(cfg.Layers), pl.quota.MaxLayers)
	}
	total := cfg.PackageBytes
	for _, l := range cfg.Layers {
		total += l.SizeBytes
	}
	if limit := int64(pl.quota.DeployLimitMB) << 20; total > limit {
		return fmt.Errorf("lambda: unzipped deployment %d MB exceeds the %d MB limit",
			total>>20, pl.quota.DeployLimitMB)
	}
	if cfg.Handler == nil {
		return fmt.Errorf("lambda: function %q has no handler", cfg.Name)
	}
	if cfg.Timeout <= 0 || cfg.Timeout > pl.quota.Timeout {
		cfg.Timeout = pl.quota.Timeout
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if _, dup := pl.fns[cfg.Name]; dup {
		return fmt.Errorf("lambda: function %q already exists", cfg.Name)
	}
	fn := &Function{cfg: &cfg, h: newFnHandles(pl.series, cfg.Name)}
	pl.fns[cfg.Name] = fn
	pl.fnList = append(pl.fnList, fn)
	return nil
}

// DeleteFunction removes a function and reaps its containers, idle or
// mid-flight, so none of them stays in the in-flight count; deleting a
// missing function is a no-op.
func (pl *Platform) DeleteFunction(name string) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	fn, ok := pl.fns[name]
	if !ok {
		return
	}
	for i := len(fn.pool) - 1; i >= 0; i-- {
		pl.discardLocked(fn, i)
	}
	delete(pl.fns, name)
	pl.fnList = slices.DeleteFunc(pl.fnList, func(f *Function) bool { return f == fn })
}

// Functions returns the deployed function names.
func (pl *Platform) Functions() []string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	names := make([]string, 0, len(pl.fns))
	for n := range pl.fns {
		names = append(names, n)
	}
	return names
}

// Result reports one invocation.
type Result struct {
	Response []byte
	// Duration is the simulated handler run time (cold start included).
	Duration time.Duration
	// BilledDuration is Duration rounded up to the billing granularity
	// plus any deferred wait settled later.
	BilledDuration time.Duration
	// Cost is what this invocation charged (0 execution if deferred).
	Cost      float64
	ColdStart bool
	TmpPeak   int64
	Phases    []Phase
	MemoryMB  int
	// ContainerID identifies the pool container that served the
	// invocation, so orchestrators can extend or discard exactly that
	// sandbox (see OccupyUntil).
	ContainerID int
	// InjectedFault names the fault the platform injected into this
	// invocation ("" when it ran clean).
	InjectedFault string
}

// Phase is one named span of simulated time inside an invocation, used
// by the coordinator to reconstruct overlapped schedules.
type Phase struct {
	Name     string
	Duration time.Duration
	// Bytes is the payload the phase moved (S3 transfers, weights
	// loading); 0 for pure-compute and overhead phases.
	Bytes int64
}

// InvokeOptions tunes an invocation.
type InvokeOptions struct {
	// DeferBilling suppresses the execution charge (the invocation fee is
	// always charged); the orchestrator settles execution later via
	// SettleExecution once it knows the function's true lifetime under
	// its scheduling mode.
	DeferBilling bool
}

// Invoke runs the named function on payload. A cold container pays the
// platform start latency; the handler then advances simulated time via
// the Context. Exceeding the function timeout aborts the invocation
// (billing the timeout), and /tmp overflow aborts with an error.
//
// The invocation lands on the lowest-numbered idle container of the
// function's pool, or cold-starts a fresh one. In clocked mode (see
// EnableClock) a cold start that would push the account past its
// concurrent-execution limit is rejected with a 429 — a transient
// faults.Error the caller's retry machinery can back off on — and
// nothing bills.
func (pl *Platform) Invoke(name string, payload []byte, opts InvokeOptions) (*Result, error) {
	pl.mu.Lock()
	fn, ok := pl.fns[name]
	if !ok {
		pl.mu.Unlock()
		return nil, fmt.Errorf("lambda: no such function %q", name)
	}
	inj := pl.inj
	h := pl.h.Load() // immutable, like fn.h and fn.cfg: read unlocked below
	fh := fn.h
	domains := pl.domains
	now := pl.clock.Now()
	// An injected throttle (429) rejects the invocation before any
	// container is assigned: warm state is untouched and nothing bills.
	// The clocked-mode offset is passed explicitly — pl.mu is held here,
	// so the injector must not call back into pl.Now().
	fault, hang := inj.InvokeFaultAt(name, now)
	if fault == faults.Throttle {
		pl.mu.Unlock()
		pl.faultCounter(h, faults.Throttle.String()).Inc(now, 1)
		return nil, &faults.Error{Kind: faults.Throttle, Op: "invoke", Target: name}
	}
	// Domain outage: the first invocation to observe a new outage window
	// reaps every container in the dead domain across all functions;
	// while the window lasts, acquisitions landing in that domain fail
	// before any work runs (the sandbox never comes up), billing nothing.
	outDomain, outStart, outActive := inj.DomainOutageAt(now)
	if outActive && domains > 1 && outStart != pl.lastOutage {
		pl.lastOutage = outStart
		pl.purgeDomainLocked(outDomain)
	}
	c, cold, throttled := fn.acquireLocked(pl)
	if throttled {
		pl.mu.Unlock()
		h.throttles.Inc(now, 1)
		return nil, &faults.Error{Kind: faults.Throttle, Op: "invoke", Target: name}
	}
	if outActive && domains > 1 && c.domain == outDomain {
		if i := fn.findLocked(c.id); i >= 0 {
			pl.discardLocked(fn, i)
		}
		pl.mu.Unlock()
		inj.NoteDomainFault()
		pl.faultCounter(h, faults.DomainOutage.String()).Inc(now, 1)
		return nil, &faults.Error{Kind: faults.DomainOutage, Op: "invoke", Target: name}
	}
	cfg := fn.cfg
	pl.mu.Unlock()

	// The Result is acquired before the Context so the invocation's phase
	// spans accumulate directly into the Result's recycled backing array:
	// res is not visible to anyone else yet, so lending its Phases slice
	// to the Context aliases nothing.
	res, _ := pl.resPool.Get().(*Result)
	if res == nil {
		res = &Result{}
	}
	ctx, _ := pl.ctxPool.Get().(*Context)
	if ctx == nil {
		ctx = &Context{}
	}
	*ctx = Context{
		platform: pl,
		memoryMB: cfg.MemoryMB,
		timeout:  cfg.Timeout,
		cold:     cold,
		phases:   res.Phases[:0],
	}
	if cold {
		ctx.advance("coldstart", pl.perf.ColdStartBase)
	}
	ctx.advance("overhead", pl.perf.InvokeOverhead)

	resp, herr := runHandler(cfg.Handler, ctx, payload)

	// Invocation fee is charged regardless of outcome.
	pl.meter.Add("lambda:invocations", pricing.LambdaInvocation)

	*res = Result{
		Response:    resp,
		Duration:    ctx.elapsed,
		ColdStart:   cold,
		TmpPeak:     ctx.tmpPeak,
		Phases:      ctx.phases,
		MemoryMB:    cfg.MemoryMB,
		ContainerID: c.id,
	}
	timedOut := ctx.timedOut
	*ctx = Context{}
	pl.ctxPool.Put(ctx)
	discard := false // a crashed, wedged or killed sandbox is lost — it alone
	if timedOut {
		res.Duration = cfg.Timeout
		herr = fmt.Errorf("lambda: function %q timed out after %v", name, cfg.Timeout)
	} else if herr == nil {
		// Injected container faults manifest only if the handler didn't
		// already fail on its own: a crash loses the response after the
		// work (and its GB-seconds) are spent; a timeout additionally
		// wedges the invocation until the platform reaps it.
		switch fault {
		case faults.Crash:
			res.InjectedFault = fault.String()
			res.Response = nil
			herr = &faults.Error{Kind: faults.Crash, Op: "invoke", Target: name}
			discard = true
		case faults.Timeout:
			res.InjectedFault = fault.String()
			res.Response = nil
			hung := res.Duration + time.Duration(hang*float64(res.Duration))
			if hung > cfg.Timeout {
				hung = cfg.Timeout
			}
			res.Duration = hung
			herr = &faults.Error{Kind: faults.Timeout, Op: "invoke", Target: name}
			discard = true
		default:
			// An outage of this container's domain beginning mid-execution
			// kills the invocation partway: the response is lost, the run up
			// to the kill instant still bills, and the sandbox is gone. The
			// caller retries from scratch on a surviving domain — the load
			// amplification a domain storm causes is exactly this redone,
			// already-paid-for work.
			if domains > 1 {
				if killAt, killed := inj.DomainKillAt(c.domain, now, now+res.Duration); killed {
					res.InjectedFault = faults.DomainOutage.String()
					res.Response = nil
					res.Duration = killAt - now
					herr = &faults.Error{Kind: faults.DomainOutage, Op: "invoke", Target: name}
					discard = true
					inj.NoteDomainFault()
				}
			}
		}
	}
	// One lock section settles the container and reads what the occupancy
	// gauges below report at the invocation's finish.
	end := now + res.Duration
	pl.mu.Lock()
	poolSize := pl.releaseLocked(fn, c.id, end, discard)
	inFlight := 0
	if h.ts != nil {
		inFlight = pl.inFlightLocked(end)
	}
	pl.mu.Unlock()
	res.BilledDuration = roundUp(res.Duration, pl.quota.BillingGranularity)
	if !opts.DeferBilling {
		ec := pl.quota.ExecutionCost(cfg.MemoryMB, res.Duration)
		pl.meter.Add("lambda:execution", ec)
		res.Cost = ec + pricing.LambdaInvocation
	} else {
		res.Cost = pricing.LambdaInvocation
	}

	// Telemetry: one write section per registry. Handles that may need
	// resolving (a first-sight fault kind or phase name takes pl.mu and
	// the registry's own lock) are resolved before either section opens.
	var injected obs.EventCounter
	if res.InjectedFault != "" {
		injected = pl.faultCounter(h, res.InjectedFault)
	}
	if h.mx != nil {
		var buf [8]obs.HistHandle
		hists := buf[:0]
		for i := range res.Phases {
			hists = append(hists, pl.phaseHist(h, res.Phases[i].Name))
		}
		w := h.mx.Begin()
		if !opts.DeferBilling {
			w.Add(h.gbSeconds, gbSeconds(cfg.MemoryMB, res.Duration))
		}
		w.Inc(h.invocations, 1)
		if cold {
			w.Inc(h.coldStarts, 1)
		}
		if res.InjectedFault != "" {
			w.IncEvent(injected, 1)
		}
		for i, hh := range hists {
			w.Observe(hh, res.Phases[i].Duration.Seconds())
		}
		w.End()
	}
	if h.ts != nil {
		// Counters land in the dispatch window; the latency observation
		// and the occupancy gauges land at the invocation's finish, the
		// instant the pool actually reflects it.
		w := h.ts.Begin()
		if res.InjectedFault != "" {
			w.IncEvent(injected, now, 1)
		}
		w.Inc(fh.invocations, now, 1)
		if cold {
			w.Inc(fh.coldStarts, now, 1)
		}
		w.Observe(fh.invokeSec, end, res.Duration.Seconds())
		w.Set(fh.poolSize, end, float64(poolSize))
		w.Set(h.tsInflight, end, float64(inFlight))
		w.End()
	}

	if herr != nil {
		return res, herr
	}
	return res, nil
}

func gbSeconds(memMB int, d time.Duration) float64 {
	return float64(memMB) / 1024 * d.Seconds()
}

// RecycleResult returns a Result obtained from Invoke to the platform's
// pool. Only callers that own the Result exclusively may recycle it —
// res, res.Phases and res.Response must not be touched afterwards. The
// coordinator's lean serving path recycles; everyone else just lets
// Results reach the GC.
func (pl *Platform) RecycleResult(res *Result) {
	if res == nil {
		return
	}
	*res = Result{Phases: res.Phases[:0]}
	pl.resPool.Put(res)
}

// SettleExecution charges the execution cost for a deferred invocation
// whose true billed lifetime (including S3-polling waits under eager
// scheduling) the orchestrator has computed.
func (pl *Platform) SettleExecution(memMB int, billed time.Duration) float64 {
	c := pl.quota.ExecutionCost(memMB, billed)
	pl.meter.Add("lambda:execution", c)
	pl.h.Load().gbSeconds.Add(gbSeconds(memMB, billed))
	return c
}

func runHandler(h Handler, ctx *Context, payload []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == errTimeoutSentinel {
				err = nil // reported via ctx.timedOut
				return
			}
			err = fmt.Errorf("lambda: handler panicked: %v", r)
		}
	}()
	return h(ctx, payload)
}

func roundUp(d, g time.Duration) time.Duration {
	if d <= 0 {
		return g
	}
	return (d + g - 1) / g * g
}
