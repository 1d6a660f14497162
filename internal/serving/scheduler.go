package serving

import (
	"fmt"
	"math/rand"
	"time"

	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// unit is one admission unit — Size ≥ 1 contiguous requests sharing a
// single invocation — from coalescing to settlement. Records are
// slab-recycled; the arrs and waits slices keep their capacity across
// reuse.
type unit struct {
	batchUnit
	// arrs are the member requests' arrival instants (len == Size). A
	// fresh record points it at one, so the common size-1 unit costs no
	// allocation even while an overloaded backlog keeps touching new slab
	// slots (chunks never move, so the self-reference stays valid).
	arrs []time.Duration
	one  [1]time.Duration
	// Admission state: the next admission instant, how many times the
	// concurrency limit has turned the unit away, and the backoff it has
	// waited (itemized in waits for span building, retained runs only).
	readyAt  time.Duration
	attempts int
	wait     time.Duration
	waits    []time.Duration
	// dep is the deployment the unit was admitted onto — the primary, or
	// the quantized fallback while brownout holds the fallback rung — so
	// settled reports recycle into the pool they came from. start is the
	// absolute admission instant (the job's time zero).
	dep   *coordinator.Deployment
	start time.Duration
	// Staged executor only: the staged job, its admission sequence
	// number, which stage runs next and the absolute end of its last
	// completed step (the input upload before stage 0).
	sj      *coordinator.StagedJob
	seq     int
	next    int
	prevEnd time.Duration
}

// results is the run's result sink. Retained runs (Serve) keep every
// request's JobResult — and, subject to sampling, its span tree — in
// rep.Jobs and summarize once at the end. Folding runs (ServeStream)
// reuse one scratch JobResult and fold each settled request straight
// into the aggregates, so memory stays O(backlog) over million-request
// traces.
type results struct {
	rep     *Report
	retain  bool
	acc     summaryAcc
	scratch JobResult
}

// slot returns the record request idx settles into.
func (r *results) slot(idx int) *JobResult {
	if r.retain {
		return &r.rep.Jobs[idx]
	}
	r.scratch = JobResult{}
	return &r.scratch
}

// commit closes a record obtained from slot once it is fully filled.
func (r *results) commit(jr *JobResult) {
	if !r.retain {
		r.acc.fold(r.rep, jr)
	}
}

// reject settles every member of a unit turned away at admission; ev
// counts the rejection.
func (r *results) reject(u *unit, now time.Duration, outcome, errText string, ev obs.EventCounter) {
	for k := 0; k < u.Size; k++ {
		jr := r.slot(u.First + k)
		jr.Index = u.First + k
		jr.Arrival = u.arrs[k]
		jr.Start = now
		jr.Done = now
		jr.Queue = now - u.arrs[k]
		jr.Latency = jr.Queue
		jr.Throttles = u.attempts
		jr.ThrottleWait = u.wait
		jr.Outcome = outcome
		jr.Err = errText
		if r.retain {
			jr.Trace = requestSpan(jr, u.waits, nil)
		}
		ev.Inc(now, 1)
		r.commit(jr)
	}
}

// finish computes the report's aggregates.
func (r *results) finish() {
	if r.retain {
		summarize(r.rep)
		return
	}
	r.acc.finalize(r.rep, r.rep.Requests)
}

// scheduler is the serving event loop on the unified discrete-event
// core (internal/sim): one admission front end, one settlement path and
// two executors.
//
// Admission: arrivals stream from a lazy source through the coalescer
// into units (a disabled BatchPolicy yields size-1 units dispatched at
// their arrival), one lookahead unit beyond the admission frontier.
// Throttled units back off into admitQ, ordered by raw (readyAt, leader
// index). Unit dispatch instants are non-decreasing in leader order and
// every backed-off leader precedes the frontier's, so the earliest-ready
// unit is always the heap top or the lookahead — the (readyAt, index)
// lexicographic minimum. Each admission then passes brownout shed → SLO
// shed → concurrency throttle → deadline propagation → fallback routing.
//
// Execution (execute) is the one place the two modes part:
//
//   - Whole-job (neither Pipeline nor Batch enabled): the unit runs
//     through Deployment.Run and settles at its admission instant, its
//     containers occupied until their true lifetimes end. There is no
//     depth gate, and phases overlap inside the job (eager mode) — this
//     is not "staged with one slot".
//   - Staged: the unit becomes a coordinator.StagedJob whose partition
//     stages interleave with other units' in global time order — stage i
//     of request n overlaps stage i+1 of request n−1. Each stage has one
//     pipeline slot, so a deployment's warm container per function is
//     reused back to back; Depth bounds the units in the pipeline. Stage
//     events are pushed when a job becomes the head of its stage queue —
//     max(prevEnd, freeAt) is fixed from then until the event fires,
//     because only the head can change a slot's freeAt — so every
//     event's time is final at push.
//
// Both orders are pinned byte for byte against the preserved legacy
// loops (legacy_test.go) and scheduler_golden.json.
type scheduler struct {
	cfg Config
	pl  *lambda.Platform
	// now caches the platform clock: only this loop advances it.
	now   time.Duration
	width int // containers one admission occupies: the partition count
	limit int
	input func(int) *tensor.Tensor

	h  serveHandles
	ts *obs.TimeSeries
	// Queue-depth dedupe: the gauge is last-write-wins per window, so a
	// write repeating the previous (window, depth) pair cannot change
	// any frame and is skipped.
	tsWindow   time.Duration
	depthDedup gaugeDedup
	advanced   int64 // window index of the last ts.Advance call
	sampler    *obs.Sampler
	// ctl is the brownout controller (nil when disabled): it judges the
	// windows each ts.Advance flushes; the loop enacts the level it asks
	// for before the next admission.
	ctl *brownoutCtl
	rng *rand.Rand // throttle backoff jitter
	rep *Report
	out results

	// Admission front end. look is the one coalesced unit beyond the
	// admission frontier; admitQ holds backed-off units. backlog counts
	// member requests in not-yet-admitted units (heap + lookahead).
	coal     *unitCoalescer
	units    sim.Slab[unit]
	admitQ   sim.Heap
	lookID   int32
	haveLook bool
	backlog  int
	arrsBuf  []time.Duration

	// Running mean of completed service times — the SLO shedding
	// completion predictor. Deterministic: it only folds in completed
	// jobs, in event order.
	estSum time.Duration
	estN   int

	shares []float64 // splitCost scratch

	// evs orders the staged executor's stage starts and finishes by
	// (time, class, admission sequence); running counts the units in the
	// pipeline, which depth bounds. Whole-job units settle at admission,
	// so for them evs stays empty, running zero and the depth gate open.
	evs     sim.Heap
	running int
	depth   int
	// st is the staged executor's pipeline: nil for whole-job runs.
	st *stagedExec
}

// serve runs a validated config's trace through the scheduler. retain
// selects the result sink: keep every request (Serve) or fold as they
// settle (ServeStream).
func serve(cfg Config, src sim.Source, input func(int) *tensor.Tensor, retain bool) (*Report, error) {
	s, err := newScheduler(cfg, src, input, retain)
	if err != nil {
		return nil, err
	}
	return s.run()
}

func newScheduler(cfg Config, src sim.Source, input func(int) *tensor.Tensor, retain bool) (*scheduler, error) {
	dep := cfg.Deployment
	pl := dep.Platform()
	pl.EnableClock()
	n := src.Remaining()
	rep := &Report{Mode: cfg.mode(), Requests: n, SLOActive: cfg.SLO.enabled(), SLODeadline: cfg.SLO.Deadline}
	s := &scheduler{
		cfg: cfg, pl: pl, now: pl.Now(),
		width: dep.Partitions(), limit: pl.AccountConcurrency(), input: input,
		h: newServeHandles(cfg.Metrics, cfg.Series), ts: cfg.Series, tsWindow: cfg.Series.Window(),
		sampler: cfg.Sample.sampler(),
		rng:     rand.New(rand.NewSource(seedOr1(cfg.Throttle.JitterSeed))),
		rep:     rep, out: results{rep: rep, retain: retain},
		depth: max(cfg.Pipeline.Depth, 1),
	}
	if cfg.Brownout.Enabled {
		s.ctl = newBrownoutCtl(cfg.Brownout, cfg.Series)
	}
	var brng *rand.Rand
	if cfg.Batch.enabled() {
		brng = rand.New(rand.NewSource(seedOr1(cfg.Batch.JitterSeed)))
	}
	s.coal = newUnitCoalescer(src, cfg.Batch, brng)
	if cfg.Pipeline.enabled() || cfg.Batch.enabled() {
		s.st = newStagedExec(cfg, s.width)
	}
	if retain {
		rep.Jobs = make([]JobResult, n)
	} else {
		// The latency reservoir is the one per-request cost a folding run
		// keeps; sized once, it never regrows (as summarize sizes it for
		// retained runs).
		s.out.acc.lats = make([]time.Duration, 0, n)
	}
	s.coal.ctl = s.ctl
	var err error
	s.lookID, s.haveLook, err = s.nextUnit()
	return s, err
}

// mode names the executor the config selects, for Report.Mode.
func (cfg Config) mode() string {
	switch pipe, batch := cfg.Pipeline.enabled(), cfg.Batch.enabled(); {
	case pipe && batch:
		return "pipelined+batched"
	case pipe:
		return "pipelined"
	case batch:
		return "batched"
	case cfg.Sequential:
		return "sequential"
	}
	return "eager"
}

// nextUnit coalesces the trace's next unit into a fresh record; ok is
// false once the trace is exhausted.
func (s *scheduler) nextUnit() (id int32, ok bool, err error) {
	bu, arrs, ok, err := s.coal.next(s.arrsBuf)
	s.arrsBuf = arrs
	if err != nil || !ok {
		return 0, false, err
	}
	id, u := s.units.Alloc()
	u.batchUnit = bu
	if u.arrs == nil {
		u.arrs = u.one[:0]
	}
	u.arrs = append(u.arrs[:0], arrs...)
	u.readyAt = bu.DispatchAt
	u.attempts = 0
	u.wait = 0
	u.waits = u.waits[:0]
	s.backlog += bu.Size
	return id, true, nil
}

// advance moves the platform clock to t (never backwards) and returns
// the new instant.
func (s *scheduler) advance(t time.Duration) time.Duration {
	s.pl.AdvanceTo(t)
	s.now = s.pl.Now()
	return s.now
}

// run drives the event loop to completion.
func (s *scheduler) run() (*Report, error) {
	for {
		ev, haveEv := s.evs.Peek()
		adm, haveAdm := s.admitQ.Peek()
		fromLook := false
		if s.haveLook {
			// The frontier competes with backed-off units by raw (readyAt,
			// leader); backed-off leaders always precede the frontier
			// leader, so the frontier wins only on a strictly earlier
			// instant.
			if u := s.units.Get(s.lookID); !haveAdm || u.readyAt < adm.At {
				adm = sim.Event{At: u.readyAt, ID: s.lookID}
				fromLook = true
			}
			haveAdm = true
		}
		if !haveEv && !haveAdm {
			break
		}
		canAdmit := haveAdm && s.running < s.depth
		var admitAt time.Duration
		if canAdmit {
			// Units released into the past (the depth gate held them while
			// the clock moved on) admit now.
			admitAt = adm.At
			if admitAt < s.now {
				admitAt = s.now
			}
		}
		// At equal instants finishes and stage starts precede admissions
		// (class order), so admission wins only strictly earlier.
		if canAdmit && (!haveEv || admitAt < ev.At) {
			if fromLook {
				var err error
				if s.lookID, s.haveLook, err = s.nextUnit(); err != nil {
					return nil, err
				}
			} else {
				s.admitQ.Pop()
			}
			if err := s.admit(adm.ID, admitAt); err != nil {
				return nil, err
			}
			continue
		}
		if !haveEv {
			// Pipeline at depth capacity with nothing left to run. This
			// cannot happen (finishing jobs free capacity and always hold
			// a live event), but guard against looping forever if it
			// ever does.
			return nil, fmt.Errorf("serving: pipelined scheduler stalled with %d queued, %d running", s.admitQ.Len(), s.running)
		}
		if err := s.stageEvent(); err != nil {
			return nil, err
		}
	}

	s.out.finish()
	s.h.peakInFlight.Set(float64(s.rep.PeakInFlight))
	s.ts.Advance(s.rep.Makespan)
	s.ts.Flush()
	s.ctl.judge(s.ts, &s.h)
	s.finishBrownout()
	return s.rep, nil
}

// admit takes unit uid out of the queue at instant at and walks it
// through admission control; a unit that passes is executed.
func (s *scheduler) admit(uid int32, at time.Duration) error {
	u := s.units.Get(uid)
	now := s.advance(at)
	s.backlog -= u.Size
	if s.ts != nil {
		// Advance flushes nothing until now enters a window past the one
		// the last call saw, so the calls in between are skipped.
		w := int64(now / s.tsWindow)
		if w > s.advanced {
			s.advanced = w
			s.ts.Advance(now)
			s.ctl.judge(s.ts, &s.h)
		}
		// Queue depth after this unit leaves the queue, in requests.
		d := s.backlog + s.coal.unread()
		if s.depthDedup.changed(w, d) {
			s.h.tsQueueDepth.Set(now, float64(d))
		}
	}
	s.applyBrownout(now)
	slo := s.cfg.SLO
	elapsed := now - u.arrs[0]

	// Brownout's deepest rung rejects every new admission outright. These
	// rejections bill through their own counter rather than
	// serving_shed_total, so the controller's health triggers see
	// post-shed windows as healthy and probe back up the ladder.
	if s.ctl.Level() >= BrownoutShed {
		s.rep.BrownoutShed += u.Size
		s.out.reject(u, now, OutcomeShed, "", s.h.brownoutShed)
		s.units.Free(uid)
		return nil
	}
	// SLO-aware load shedding: reject at admission when the unit has
	// already missed its deadline in the queue, or when the running
	// service-time estimate predicts it will.
	if slo.Shed && (elapsed >= slo.Deadline ||
		(s.estN > 0 && elapsed+s.estSum/time.Duration(s.estN) > slo.Deadline)) {
		s.out.reject(u, now, OutcomeShed, "", s.h.shed)
		s.units.Free(uid)
		return nil
	}
	if s.pl.InFlightAt(now)+s.width > s.limit {
		// Admission would push the account past its concurrency limit:
		// the unit is throttled (429) and backs off.
		u.attempts++
		s.rep.Throttles++
		s.h.throttles.Inc(now, 1)
		if u.attempts >= s.cfg.Throttle.attempts() {
			if !slo.TolerateFailures {
				return fmt.Errorf("serving: request %d throttled %d times (limit %d, width %d)",
					u.First, u.attempts, s.limit, s.width)
			}
			s.out.reject(u, now, OutcomeThrottled, fmt.Sprintf("throttled %d times", u.attempts), s.h.admFail)
			s.units.Free(uid)
			return nil
		}
		bo := backoff(s.cfg.Throttle, u.attempts, s.rng)
		u.wait += bo
		if s.out.retain {
			// Individual waits feed span building only; folding runs keep
			// just the scalar total.
			u.waits = append(u.waits, bo)
		}
		u.readyAt = now + bo
		s.backlog += u.Size
		s.admitQ.Push(sim.Event{At: u.readyAt, Class: evAdmit, Seq: uint64(u.First), ID: uid})
		return nil
	}

	// Deadline propagation: the coordinator gets only what is left of the
	// request's budget after queueing. A non-positive remainder still
	// runs with a token budget so the job fails fast through the typed
	// deadline path rather than running unbounded.
	var jobDeadline time.Duration
	if slo.Deadline > 0 {
		jobDeadline = slo.Deadline - elapsed
		if jobDeadline <= 0 {
			jobDeadline = time.Nanosecond
		}
	}
	// Brownout's fallback rung routes this admission onto the quantized
	// deployment; the shared platform and meter keep costs exact.
	u.dep = s.cfg.Deployment
	if s.ctl.Level() >= BrownoutFallback && s.cfg.Fallback != nil {
		u.dep = s.cfg.Fallback
		s.rep.FallbackServed += u.Size
		s.h.fallback.Inc(now, int64(u.Size))
	}
	u.start = now
	return s.execute(uid, u, jobDeadline)
}

// execute runs an admitted unit — the single site that chooses between
// the whole-job and the staged executor (see scheduler).
func (s *scheduler) execute(uid int32, u *unit, deadline time.Duration) error {
	lean := !s.out.retain
	noTrace := lean || !s.sampler.Keep(uint64(u.First))
	if s.st != nil {
		return s.beginStaged(uid, u, coordinator.StagedOptions{
			Deadline: deadline, Batch: u.Size, NoTrace: noTrace, Lean: lean,
		})
	}
	jrep, err := u.dep.Run(s.input(u.First), coordinator.RunOptions{
		Sequential: s.cfg.Sequential, Deadline: deadline, NoTrace: noTrace, Lean: lean,
	})
	if err == nil {
		s.samplePeak(u.start)
	}
	return s.settle(uid, u, jrep, err)
}

func (s *scheduler) samplePeak(now time.Duration) {
	if inFlight := s.pl.InFlightAt(now); inFlight > s.rep.PeakInFlight {
		s.rep.PeakInFlight = inFlight
	}
}

// settle closes an executed unit: it classifies the outcome, fills each
// member's result, writes the serving metrics, recycles the job report
// and frees the unit. The unit's charge — jrep.Cost, the job's marginal
// charge on the shared meter as the coordinator measured it — is split
// across its members. It returns a non-nil error when a failure must
// abort the whole run.
//
// done is the unit's completion instant; stamp is when the scheduler
// learned its fate. A staged unit settles when its finish (or failing
// stage) event fires, so the two coincide. A whole-job unit settles at
// its admission instant, ahead of the clock reaching done: its queueing
// delay and failure counters are stamped at admission, while jobs,
// latency and cost land in the window that contains done.
func (s *scheduler) settle(uid int32, u *unit, jrep *coordinator.Report, err error) error {
	outcome, errText := OutcomeOK, ""
	done := u.start + jrep.Completion
	var failed obs.EventCounter
	if err != nil {
		deadlined := coordinator.IsDeadlineExceeded(err)
		// Failures abort the run unless tolerated. A deadline failure is
		// part of the SLO contract: only SLO.Deadline gives a job one.
		if !s.cfg.SLO.TolerateFailures && !deadlined {
			return fmt.Errorf("serving: request %d: %w", u.First, err)
		}
		switch {
		case deadlined:
			outcome, failed = OutcomeDeadline, s.h.deadline
		case coordinator.IsBudgetExhausted(err):
			outcome, failed = OutcomeBudgetExhausted, s.h.budgetExhausted
		default:
			outcome, failed = OutcomeFailed, s.h.failures
		}
		if s.out.retain {
			// Only a retained JobResult shows the text; a folded one is
			// never read, and formatting a deadline error costs two
			// Sprintfs.
			errText = err.Error()
		}
		// The failed job still consumed simulated time before giving up.
		done = u.start + jrep.Elapsed
	} else {
		s.estSum += jrep.Completion
		s.estN++
	}
	stamp := done
	if s.st == nil {
		stamp = u.start
	}

	shares := s.splitCost(jrep.Cost, u.Size)
	for k := 0; k < u.Size; k++ {
		jr := s.out.slot(u.First + k)
		jr.Index = u.First + k
		jr.Arrival = u.arrs[k]
		jr.Start = u.start
		jr.Done = done
		jr.Queue = u.start - u.arrs[k]
		jr.Latency = done - u.arrs[k]
		jr.Cost = shares[k]
		jr.Throttles = u.attempts
		jr.ThrottleWait = u.wait
		jr.Outcome = outcome
		jr.Err = errText
		if k == 0 {
			// Staged failures count toward the sampling counters; a
			// whole-job failure keeps its forced tree without counting.
			s.fillLeader(jr, u, jrep, err == nil || s.st != nil)
		} else if jrep.Trace != nil {
			jr.Trace = batchRideSpan(jr, u.waits, u.First, u.Size)
		}
		s.out.commit(jr)
	}
	// Telemetry in one write section per registry, members in order (the
	// float totals and histogram sums depend on it).
	if mx := s.cfg.Metrics; mx != nil {
		w := mx.Begin()
		for k := 0; k < u.Size; k++ {
			w.Add(s.h.cost, shares[k])
			if err != nil {
				w.IncEvent(failed, 1)
				continue
			}
			w.IncEvent(s.h.jobs, 1)
			w.Observe(s.h.queueSec, (u.start - u.arrs[k]).Seconds())
			w.Observe(s.h.latencySec, (done - u.arrs[k]).Seconds())
		}
		w.End()
	}
	if s.ts != nil {
		w := s.ts.Begin()
		for k := 0; k < u.Size; k++ {
			w.Add(s.h.tsCost, done, shares[k])
			if err != nil {
				w.IncEvent(failed, stamp, 1)
				continue
			}
			w.IncEvent(s.h.jobs, done, 1)
			w.Observe(s.h.tsQueueSec, stamp, (u.start - u.arrs[k]).Seconds())
			w.Observe(s.h.tsLatencySec, done, (done - u.arrs[k]).Seconds())
		}
		w.End()
	}
	if done > s.rep.Makespan {
		s.rep.Makespan = done
	}
	// A no-op for reports that did not come from the lean pool.
	u.dep.ReleaseReport(jrep)
	s.units.Free(uid)
	return nil
}

// fillLeader records what belongs to the unit's one shared invocation
// on its leader: retries, faults, resilience counts and the span tree
// (with every cost event). Followers get a batch-ride span pointing at
// it, so obs.SumCostsAll over the report's traces still replays each
// charge exactly once. A sampled-out unit has no coordinator tree
// (failures and hedge wins force one, lean jobs never build one); then
// neither the leader nor its followers keep request spans, only exact
// costs.
func (s *scheduler) fillLeader(jr *JobResult, u *unit, jrep *coordinator.Report, countSample bool) {
	jr.Retries = jrep.Retries
	jr.Faults = jrep.FaultsInjected
	jr.Hedges = jrep.Hedges
	jr.HedgeWins = jrep.HedgeWins
	jr.ShortCircuits = jrep.ShortCircuits
	jr.BudgetDenied = jrep.BudgetDenied
	jr.WastedSpend = jrep.WastedSpend
	for _, lr := range jrep.PerLambda {
		if lr.Cold {
			jr.ColdStarts++
		}
	}
	if jrep.Trace != nil {
		jr.Trace = requestSpan(jr, u.waits, jrep.Trace)
	}
	if s.sampler != nil && countSample {
		if jrep.Trace != nil {
			s.h.spansSampled.Inc(jr.Done, 1)
		} else {
			s.h.spansDropped.Inc(jr.Done, 1)
		}
	}
}

// splitCost runs splitCostInto on the scheduler's reused scratch slice.
func (s *scheduler) splitCost(total float64, n int) []float64 {
	if cap(s.shares) < n {
		s.shares = make([]float64, n)
	}
	return splitCostInto(s.shares[:n], total)
}

// applyBrownout enacts the controller's current level if it moved since
// the last event.
func (s *scheduler) applyBrownout(now time.Duration) {
	ctl := s.ctl
	if ctl == nil || ctl.level == ctl.applied {
		return
	}
	ctl.applied = ctl.level
	s.h.tsBrownoutLevel.Set(now, float64(ctl.level))
	s.setHedgingDisabled(ctl.level >= BrownoutNoHedge)
}

func (s *scheduler) setHedgingDisabled(off bool) {
	s.cfg.Deployment.SetHedgingDisabled(off)
	if fb := s.cfg.Fallback; fb != nil {
		fb.SetHedgingDisabled(off)
	}
}

// finishBrownout records the controller's run totals and restores the
// deployments' hedging state so the next run on them starts healthy.
func (s *scheduler) finishBrownout() {
	if s.ctl == nil {
		return
	}
	s.rep.BrownoutDeepest = s.ctl.deepest
	s.rep.BrownoutTransitions = s.ctl.transitions
	s.h.brownoutLevel.Set(float64(s.ctl.level))
	s.setHedgingDisabled(false)
}
