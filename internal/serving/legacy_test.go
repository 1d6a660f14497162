package serving

// This file preserves the pre-sim schedulers — the O(n²) linear-scan
// sequential loop and the scan-per-iteration pipelined event loop — as
// test-only reference implementations. The equivalence battery
// (sim_equivalence_test.go) pins the shipped sim.Heap-based schedulers
// byte-identical to these across models × policy stacks × fault seeds;
// the references carry exactly the selection logic the original loops
// used, so any reordering the heap port introduced would surface as a
// report/trace/meter diff.

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/tensor"
)

// legacyPending mirrors the original sequential scheduler's queue entry.
type legacyPending struct {
	idx      int
	readyAt  time.Duration
	attempts int
	wait     time.Duration
	waits    []time.Duration
}

// serveLegacy dispatches exactly as the pre-sim Serve did: staged path
// when pipelining or batching is enabled, the linear-scan sequential
// loop otherwise. Inputs are assumed validated (the battery only feeds
// configurations the shipped Serve accepts).
func serveLegacy(cfg Config, inputs []*tensor.Tensor, arrivals []time.Duration) (*Report, error) {
	if cfg.Pipeline.enabled() || cfg.Batch.enabled() {
		return servePipelinedLegacy(cfg, inputs, arrivals)
	}
	return serveSequentialLegacy(cfg, inputs, arrivals)
}

// serveSequentialLegacy is the original Serve loop: the pending queue
// is a plain slice, each iteration linearly scans it for the minimum
// (readyAt, idx) entry — O(n²) over the trace.
func serveSequentialLegacy(cfg Config, inputs []*tensor.Tensor, arrivals []time.Duration) (*Report, error) {
	dep := cfg.Deployment
	pl := dep.Platform()
	pl.EnableClock()
	width := dep.Partitions()
	limit := pl.AccountConcurrency()
	mx := cfg.Metrics
	ts := cfg.Series
	sampler := cfg.Sample.sampler()

	seed := cfg.Throttle.JitterSeed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))

	rep := &Report{Mode: "eager", Jobs: make([]JobResult, len(inputs))}
	if cfg.Sequential {
		rep.Mode = "sequential"
	}
	slo := cfg.SLO
	rep.SLOActive = slo.enabled()
	rep.SLODeadline = slo.Deadline
	var estSum time.Duration
	var estN int

	queue := make([]*legacyPending, len(inputs))
	for i := range inputs {
		queue[i] = &legacyPending{idx: i, readyAt: arrivals[i]}
	}
	for len(queue) > 0 {
		// Earliest-ready request first; ties break by arrival index.
		sel := 0
		for j := 1; j < len(queue); j++ {
			if queue[j].readyAt < queue[sel].readyAt ||
				(queue[j].readyAt == queue[sel].readyAt && queue[j].idx < queue[sel].idx) {
				sel = j
			}
		}
		p := queue[sel]
		queue = append(queue[:sel], queue[sel+1:]...)

		pl.AdvanceTo(p.readyAt)
		now := pl.Now()
		ts.Advance(now)
		ts.GaugeHandle("serving_queue_depth").Set(now, float64(len(queue)))
		elapsed := now - arrivals[p.idx]

		if slo.Shed && (elapsed >= slo.Deadline ||
			(estN > 0 && elapsed+estSum/time.Duration(estN) > slo.Deadline)) {
			jr := &rep.Jobs[p.idx]
			jr.Index = p.idx
			jr.Arrival = arrivals[p.idx]
			jr.Start = now
			jr.Done = now
			jr.Queue = elapsed
			jr.Latency = elapsed
			jr.Throttles = p.attempts
			jr.ThrottleWait = p.wait
			jr.Outcome = OutcomeShed
			jr.Trace = requestSpan(jr, p.waits, nil)
			mx.CounterHandle("serving_shed_total").Inc(1)
			ts.CounterHandle("serving_shed_total").Inc(now, 1)
			continue
		}

		if pl.InFlightAt(now)+width > limit {
			p.attempts++
			rep.Throttles++
			mx.CounterHandle("serving_throttles_total").Inc(1)
			ts.CounterHandle("serving_throttles_total").Inc(now, 1)
			if p.attempts >= cfg.Throttle.attempts() {
				if !slo.TolerateFailures {
					return nil, fmt.Errorf("serving: request %d throttled %d times (limit %d, width %d)",
						p.idx, p.attempts, limit, width)
				}
				jr := &rep.Jobs[p.idx]
				jr.Index = p.idx
				jr.Arrival = arrivals[p.idx]
				jr.Start = now
				jr.Done = now
				jr.Queue = elapsed
				jr.Latency = elapsed
				jr.Throttles = p.attempts
				jr.ThrottleWait = p.wait
				jr.Outcome = OutcomeThrottled
				jr.Err = fmt.Sprintf("throttled %d times", p.attempts)
				jr.Trace = requestSpan(jr, p.waits, nil)
				mx.CounterHandle("serving_admission_failures_total").Inc(1)
				ts.CounterHandle("serving_admission_failures_total").Inc(now, 1)
				continue
			}
			bo := backoff(cfg.Throttle, p.attempts, rng)
			p.wait += bo
			p.waits = append(p.waits, bo)
			p.readyAt = now + bo
			queue = append(queue, p)
			continue
		}

		var jobDeadline time.Duration
		if slo.Deadline > 0 {
			jobDeadline = slo.Deadline - elapsed
			if jobDeadline <= 0 {
				jobDeadline = time.Nanosecond
			}
		}

		before := pl.Meter().Total()
		jrep, err := dep.Run(inputs[p.idx], coordinator.RunOptions{
			Sequential: cfg.Sequential,
			Deadline:   jobDeadline,
			NoTrace:    !sampler.Keep(uint64(p.idx)),
		})

		jr := &rep.Jobs[p.idx]
		jr.Index = p.idx
		jr.Arrival = arrivals[p.idx]
		jr.Start = now
		jr.Queue = elapsed
		jr.Cost = pl.Meter().Total() - before
		jr.Throttles = p.attempts
		jr.ThrottleWait = p.wait
		if jrep != nil {
			jr.Retries = jrep.Retries
			jr.Faults = jrep.FaultsInjected
			jr.Hedges = jrep.Hedges
			jr.HedgeWins = jrep.HedgeWins
			jr.ShortCircuits = jrep.ShortCircuits
			jr.WastedSpend = jrep.WastedSpend
			for _, lr := range jrep.PerLambda {
				if lr.Cold {
					jr.ColdStarts++
				}
			}
		}

		if err != nil {
			deadlined := coordinator.IsDeadlineExceeded(err)
			if !deadlined && !slo.TolerateFailures {
				return nil, fmt.Errorf("serving: request %d: %w", p.idx, err)
			}
			if deadlined && slo.Deadline == 0 {
				if !slo.TolerateFailures {
					return nil, fmt.Errorf("serving: request %d: %w", p.idx, err)
				}
			}
			jr.Outcome = OutcomeFailed
			if deadlined {
				jr.Outcome = OutcomeDeadline
				mx.CounterHandle("serving_deadline_failures_total").Inc(1)
				ts.CounterHandle("serving_deadline_failures_total").Inc(now, 1)
			} else {
				mx.CounterHandle("serving_failures_total").Inc(1)
				ts.CounterHandle("serving_failures_total").Inc(now, 1)
			}
			jr.Err = err.Error()
			var failTrace *obs.Span
			var failDur time.Duration
			if jrep != nil && jrep.Trace != nil {
				failTrace = jrep.Trace
				failDur = failTrace.Duration
			}
			jr.Done = now + failDur
			jr.Latency = jr.Done - arrivals[p.idx]
			jr.Trace = requestSpan(jr, p.waits, failTrace)
			if jr.Done > rep.Makespan {
				rep.Makespan = jr.Done
			}
			mx.TotalHandle("serving_cost_usd_total").Add(jr.Cost)
			ts.TotalHandle("serving_cost_usd_total").Add(jr.Done, jr.Cost)
			continue
		}

		jr.Done = now + jrep.Completion
		jr.Latency = jr.Done - arrivals[p.idx]
		jr.Outcome = OutcomeOK
		estSum += jrep.Completion
		estN++
		if jrep.Trace != nil {
			jr.Trace = requestSpan(jr, p.waits, jrep.Trace)
			if sampler != nil {
				mx.CounterHandle("serving_spans_sampled_total").Inc(1)
				ts.CounterHandle("serving_spans_sampled_total").Inc(jr.Done, 1)
			}
		} else if sampler != nil {
			mx.CounterHandle("serving_spans_dropped_total").Inc(1)
			ts.CounterHandle("serving_spans_dropped_total").Inc(jr.Done, 1)
		}

		if inFlight := pl.InFlightAt(now); inFlight > rep.PeakInFlight {
			rep.PeakInFlight = inFlight
		}
		if jr.Done > rep.Makespan {
			rep.Makespan = jr.Done
		}
		mx.CounterHandle("serving_jobs_total").Inc(1)
		mx.HistHandle("serving_queue_seconds").Observe(jr.Queue.Seconds())
		mx.HistHandle("serving_latency_seconds").Observe(jr.Latency.Seconds())
		mx.TotalHandle("serving_cost_usd_total").Add(jr.Cost)
		ts.CounterHandle("serving_jobs_total").Inc(jr.Done, 1)
		ts.HistHandle("serving_queue_seconds").Observe(now, jr.Queue.Seconds())
		ts.HistHandle("serving_latency_seconds").Observe(jr.Done, jr.Latency.Seconds())
		ts.TotalHandle("serving_cost_usd_total").Add(jr.Done, jr.Cost)
	}

	summarize(rep)
	cfg.Series.Advance(rep.Makespan)
	cfg.Series.Flush()
	mx.GaugeHandle("serving_peak_in_flight").Set(float64(rep.PeakInFlight))
	return rep, nil
}

// legacyStageJob and legacyPendingUnit mirror the original pipelined
// scheduler's bookkeeping records.
type legacyStageJob struct {
	seq       int
	unit      batchUnit
	sj        *coordinator.StagedJob
	start     time.Duration
	prevEnd   time.Duration
	next      int
	throttles int
	wait      time.Duration
	waits     []time.Duration
}

type legacyPendingUnit struct {
	unit     batchUnit
	readyAt  time.Duration
	attempts int
	wait     time.Duration
	waits    []time.Duration
}

// servePipelinedLegacy is the original staged scheduler: every
// iteration rescans the finish queue, each stage-queue head and the
// whole pending queue to pick the next event.
func servePipelinedLegacy(cfg Config, inputs []*tensor.Tensor, arrivals []time.Duration) (*Report, error) {
	dep := cfg.Deployment
	pl := dep.Platform()
	pl.EnableClock()
	width := dep.Partitions()
	limit := pl.AccountConcurrency()
	mx := cfg.Metrics
	ts := cfg.Series
	// The shared shed/throttle-out helpers now record through handles
	// and take the unit's member arrivals on the pending record; both
	// are observationally identical to the original string-keyed calls.
	h := newServeHandles(mx, ts)
	var hScratch JobResult
	var hAcc summaryAcc
	sampler := cfg.Sample.sampler()
	slo := cfg.SLO

	depth := cfg.Pipeline.Depth
	if depth < 1 {
		depth = 1
	}
	seed := cfg.Throttle.JitterSeed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	bseed := cfg.Batch.JitterSeed
	if bseed == 0 {
		bseed = 1
	}
	brng := rand.New(rand.NewSource(bseed))

	mode := "pipelined"
	switch {
	case cfg.Pipeline.enabled() && cfg.Batch.enabled():
		mode = "pipelined+batched"
	case cfg.Batch.enabled():
		mode = "batched"
	}
	rep := &Report{Mode: mode, Jobs: make([]JobResult, len(inputs))}
	rep.SLOActive = slo.enabled()
	rep.SLODeadline = slo.Deadline

	queue := make([]*legacyPendingUnit, 0, len(inputs))
	for _, u := range coalesce(arrivals, cfg.Batch, brng) {
		queue = append(queue, &legacyPendingUnit{unit: u, readyAt: u.DispatchAt})
	}

	freeAt := make([]time.Duration, width)
	stageQ := make([][]*legacyStageJob, width)
	var finishQ []*legacyStageJob
	running := 0
	seqCounter := 0

	var estSum time.Duration
	var estN int

	fill := func(j *legacyStageJob, jrep *coordinator.Report, done time.Duration, outcome, errText string) {
		u := j.unit
		shares := splitCostInto(make([]float64, u.Size), jrep.Cost)
		for k := 0; k < u.Size; k++ {
			idx := u.First + k
			jr := &rep.Jobs[idx]
			jr.Index = idx
			jr.Arrival = arrivals[idx]
			jr.Start = j.start
			jr.Done = done
			jr.Queue = j.start - arrivals[idx]
			jr.Latency = done - arrivals[idx]
			jr.Cost = shares[k]
			jr.Throttles = j.throttles
			jr.ThrottleWait = j.wait
			jr.Outcome = outcome
			jr.Err = errText
			if k == 0 {
				jr.Retries = jrep.Retries
				jr.Faults = jrep.FaultsInjected
				jr.Hedges = jrep.Hedges
				jr.HedgeWins = jrep.HedgeWins
				jr.ShortCircuits = jrep.ShortCircuits
				jr.WastedSpend = jrep.WastedSpend
				for _, lr := range jrep.PerLambda {
					if lr.Cold {
						jr.ColdStarts++
					}
				}
				if jrep.Trace != nil {
					jr.Trace = requestSpan(jr, j.waits, jrep.Trace)
					if sampler != nil {
						mx.CounterHandle("serving_spans_sampled_total").Inc(1)
						ts.CounterHandle("serving_spans_sampled_total").Inc(done, 1)
					}
				} else if sampler != nil {
					mx.CounterHandle("serving_spans_dropped_total").Inc(1)
					ts.CounterHandle("serving_spans_dropped_total").Inc(done, 1)
				}
			} else if jrep.Trace != nil {
				jr.Trace = batchRideSpan(jr, j.waits, u.First, u.Size)
			}
			mx.TotalHandle("serving_cost_usd_total").Add(jr.Cost)
			ts.TotalHandle("serving_cost_usd_total").Add(done, jr.Cost)
			if jr.Done > rep.Makespan {
				rep.Makespan = jr.Done
			}
		}
	}

	failUnit := func(j *legacyStageJob, err error) error {
		deadlined := coordinator.IsDeadlineExceeded(err)
		if !deadlined && !slo.TolerateFailures {
			return fmt.Errorf("serving: request %d: %w", j.unit.First, err)
		}
		if deadlined && slo.Deadline == 0 && !slo.TolerateFailures {
			return fmt.Errorf("serving: request %d: %w", j.unit.First, err)
		}
		outcome := OutcomeFailed
		if deadlined {
			outcome = OutcomeDeadline
		}
		frep := j.sj.Rep()
		var failDur time.Duration
		if frep.Trace != nil {
			failDur = frep.Trace.Duration
		}
		done := j.start + failDur
		fill(j, frep, done, outcome, err.Error())
		for k := 0; k < j.unit.Size; k++ {
			if deadlined {
				mx.CounterHandle("serving_deadline_failures_total").Inc(1)
				ts.CounterHandle("serving_deadline_failures_total").Inc(done, 1)
			} else {
				mx.CounterHandle("serving_failures_total").Inc(1)
				ts.CounterHandle("serving_failures_total").Inc(done, 1)
			}
		}
		return nil
	}

	for len(queue) > 0 || running > 0 {
		bestKind := evNone
		var bestAt time.Duration
		bestSeq := 0
		bestIdx := 0
		consider := func(kind int, at time.Duration, seq, idx int) {
			if at < pl.Now() {
				at = pl.Now()
			}
			if bestKind == evNone || at < bestAt ||
				(at == bestAt && (kind < bestKind || (kind == bestKind && seq < bestSeq))) {
				bestKind, bestAt, bestSeq, bestIdx = kind, at, seq, idx
			}
		}
		for fi, j := range finishQ {
			consider(evFinish, j.prevEnd, j.seq, fi)
		}
		for i := 0; i < width; i++ {
			if len(stageQ[i]) == 0 {
				continue
			}
			j := stageQ[i][0]
			at := j.prevEnd
			if freeAt[i] > at {
				at = freeAt[i]
			}
			consider(evStage, at, j.seq, i)
		}
		if running < depth && len(queue) > 0 {
			sel := 0
			for qi := 1; qi < len(queue); qi++ {
				if queue[qi].readyAt < queue[sel].readyAt ||
					(queue[qi].readyAt == queue[sel].readyAt && queue[qi].unit.First < queue[sel].unit.First) {
					sel = qi
				}
			}
			consider(evAdmit, queue[sel].readyAt, queue[sel].unit.First, sel)
		}
		if bestKind == evNone {
			return nil, fmt.Errorf("serving: pipelined scheduler stalled with %d queued, %d running", len(queue), running)
		}

		pl.AdvanceTo(bestAt)
		now := pl.Now()
		ts.Advance(now)

		switch bestKind {
		case evFinish:
			j := finishQ[bestIdx]
			finishQ = append(finishQ[:bestIdx], finishQ[bestIdx+1:]...)
			running--
			jrep, err := j.sj.Finish(now - j.start)
			if err != nil {
				if ferr := failUnit(j, err); ferr != nil {
					return nil, ferr
				}
				continue
			}
			fill(j, jrep, now, OutcomeOK, "")
			estSum += jrep.Completion
			estN++
			for k := 0; k < j.unit.Size; k++ {
				idx := j.unit.First + k
				mx.CounterHandle("serving_jobs_total").Inc(1)
				mx.HistHandle("serving_queue_seconds").Observe(rep.Jobs[idx].Queue.Seconds())
				mx.HistHandle("serving_latency_seconds").Observe(rep.Jobs[idx].Latency.Seconds())
				ts.CounterHandle("serving_jobs_total").Inc(now, 1)
				ts.HistHandle("serving_queue_seconds").Observe(now, rep.Jobs[idx].Queue.Seconds())
				ts.HistHandle("serving_latency_seconds").Observe(now, rep.Jobs[idx].Latency.Seconds())
			}
			ts.GaugeHandle("serving_pipeline_running").Set(now, float64(running))

		case evStage:
			i := bestIdx
			j := stageQ[i][0]
			stageQ[i] = stageQ[i][1:]
			svc, err := j.sj.RunStage(now - j.start)
			if err != nil {
				freeAt[i] = now + svc
				running--
				if ferr := failUnit(j, err); ferr != nil {
					return nil, ferr
				}
				continue
			}
			freeAt[i] = now + svc
			j.prevEnd = now + svc
			j.next++
			ts.TotalHandle(fmt.Sprintf("serving_stage_busy_seconds_total{stage=%q}", strconv.Itoa(i))).Add(now, svc.Seconds())
			if j.next == width {
				finishQ = append(finishQ, j)
			} else {
				stageQ[j.next] = append(stageQ[j.next], j)
			}
			if inFlight := pl.InFlightAt(now); inFlight > rep.PeakInFlight {
				rep.PeakInFlight = inFlight
			}

		case evAdmit:
			p := queue[bestIdx]
			queue = append(queue[:bestIdx], queue[bestIdx+1:]...)
			u := p.unit
			leader := u.First
			elapsed := now - arrivals[leader]
			// Queue depth counts the member requests of the queued units.
			queued := 0
			for _, q := range queue {
				queued += q.unit.Size
			}
			ts.GaugeHandle("serving_queue_depth").Set(now, float64(queued))

			if slo.Shed && (elapsed >= slo.Deadline ||
				(estN > 0 && elapsed+estSum/time.Duration(estN) > slo.Deadline)) {
				shedUnit(rep, &hScratch, &hAcc, &pendingUnit{unit: p.unit, readyAt: p.readyAt, attempts: p.attempts, arrs: arrivals[p.unit.First : p.unit.First+p.unit.Size], wait: p.wait, waits: p.waits}, now, h, false, false)
				continue
			}

			if pl.InFlightAt(now)+width > limit {
				p.attempts++
				rep.Throttles++
				mx.CounterHandle("serving_throttles_total").Inc(1)
				ts.CounterHandle("serving_throttles_total").Inc(now, 1)
				if p.attempts >= cfg.Throttle.attempts() {
					if !slo.TolerateFailures {
						return nil, fmt.Errorf("serving: request %d throttled %d times (limit %d, width %d)",
							leader, p.attempts, limit, width)
					}
					throttleOutUnit(rep, &hScratch, &hAcc, &pendingUnit{unit: p.unit, readyAt: p.readyAt, attempts: p.attempts, arrs: arrivals[p.unit.First : p.unit.First+p.unit.Size], wait: p.wait, waits: p.waits}, now, h, false)
					continue
				}
				bo := backoff(cfg.Throttle, p.attempts, rng)
				p.wait += bo
				p.waits = append(p.waits, bo)
				p.readyAt = now + bo
				queue = append(queue, p)
				continue
			}

			var jobDeadline time.Duration
			if slo.Deadline > 0 {
				jobDeadline = slo.Deadline - elapsed
				if jobDeadline <= 0 {
					jobDeadline = time.Nanosecond
				}
			}

			in := inputs[leader]
			if u.Size > 1 {
				stacked, err := tensor.Stack(inputs[leader : leader+u.Size])
				if err != nil {
					return nil, fmt.Errorf("serving: batching requests %d..%d: %w", leader, leader+u.Size-1, err)
				}
				in = stacked
				mx.CounterHandle("serving_batches_total").Inc(1)
				ts.CounterHandle("serving_batches_total").Inc(now, 1)
			}
			ts.HistHandle("serving_batch_size").Observe(now, float64(u.Size))
			sj, err := dep.BeginStaged(in, coordinator.StagedOptions{
				Deadline: jobDeadline,
				Batch:    u.Size,
				NoTrace:  !sampler.Keep(uint64(leader)),
			})
			j := &legacyStageJob{
				seq: seqCounter, unit: u, sj: sj, start: now,
				throttles: p.attempts, wait: p.wait, waits: p.waits,
			}
			seqCounter++
			if err != nil {
				if ferr := failUnit(j, err); ferr != nil {
					return nil, ferr
				}
				continue
			}
			j.prevEnd = now + sj.InputReady()
			running++
			stageQ[0] = append(stageQ[0], j)
		}
	}

	summarize(rep)
	mx.GaugeHandle("serving_peak_in_flight").Set(float64(rep.PeakInFlight))
	cfg.Series.Advance(rep.Makespan)
	cfg.Series.Flush()
	return rep, nil
}
