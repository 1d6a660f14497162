package coordinator

import (
	"fmt"
	"strconv"
	"time"

	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/obs"
)

// buildTrace reconstructs the finished job's span tree from the same
// per-invocation results and retry records the billing settlement used,
// so exporters (Chrome trace, waterfall) never re-derive offsets. The
// tree mirrors the job geometry exactly:
//
//	job (track "coordinator")
//	├─ upload-input (track "input"): failed PUTs, backoffs, final PUT
//	└─ one invoke span per partition (track = function name)
//	   ├─ dispatch · failed attempts · backoffs · re-dispatches
//	   └─ successful attempt
//	      └─ phases (coldstart/overhead/deps-init/load-weights/
//	         s3-read/compute/s3-write), with an input-poll wait
//	         inserted before the work phases in eager mode
//
// Cost buckets captured around each billed operation are attached to
// the matching span (S3 request fees land on their transfer phase), so
// obs.SumCosts over the tree replays the meter's charges exactly.
//
// A staged job's invocations sit at its scheduler's stage starts instead
// of the sequential-chain geometry (its stages wait on shared pipeline
// slots between partitions).
func (j *job) buildTrace() *obs.Span {
	rep, eager := &j.rep, j.eager
	root := &obs.Span{
		Name: j.id, Kind: obs.KindJob, Track: "coordinator",
		Duration: rep.Completion,
	}
	root.SetAttr("mode", rep.Mode)
	root.SetAttr("model", j.d.model.Name)
	if j.batch > 1 {
		root.SetAttr("batch", strconv.Itoa(j.batch))
	}
	attachBucket(root, j.rootBucket)

	j.buildUploadSpan(root)

	jobCursor := j.upDur // sequential chain cursor
	avail := j.upDur     // eager availability chain
	for i, res := range j.results {
		info := &j.infos[i]
		lr := phaseSplit(res)
		track := j.d.parts[i].fnName

		var invStart, workStart, exit time.Duration
		if j.anchored {
			invStart = j.starts[i]
			exit = invStart + info.delay() + invokeDispatchLatency + res.Duration
		} else if eager {
			// Mirror settleEager's schedule arithmetic exactly.
			invStart = 0
			workStart = invokeDispatchLatency + lr.Init + lr.Load
			if avail > workStart {
				workStart = avail
			}
			workStart += info.delay()
			exit = workStart + lr.Read + lr.Compute + lr.Write
			avail = exit
		} else {
			invStart = jobCursor
			exit = jobCursor + info.delay() + invokeDispatchLatency + res.Duration
			jobCursor = exit
		}

		inv := root.AddChild(&obs.Span{
			Name: track, Kind: obs.KindInvoke, Track: track,
			Start: invStart, Duration: exit - invStart,
		})
		inv.SetAttr("function", track)
		inv.SetAttr("container", strconv.Itoa(res.ContainerID))
		inv.SetAttr("memory_mb", strconv.Itoa(res.MemoryMB))
		inv.SetAttr("cold", strconv.FormatBool(res.ColdStart))
		inv.SetAttr("attempts", strconv.Itoa(info.attempts))
		if info.hedges > 0 {
			inv.SetAttr("hedges", strconv.Itoa(info.hedges))
			inv.SetAttr("hedge_won", strconv.FormatBool(info.hedgeWon))
		}
		if info.shortCircuits > 0 {
			inv.SetAttr("short_circuits", strconv.Itoa(info.shortCircuits))
		}
		attachBucket(inv, j.partBuckets[i])
		attachBucket(inv, info.holdBucket)

		cursor := invStart
		inv.AddChild(&obs.Span{
			Name: "dispatch", Kind: obs.KindDispatch, Track: track,
			Start: cursor, Duration: invokeDispatchLatency,
		})
		cursor += invokeDispatchLatency
		cursor = layoutSteps(inv, info.steps, cursor, track, true)

		att := inv.AddChild(&obs.Span{
			Name: fmt.Sprintf("attempt-%d", info.attempts), Kind: obs.KindAttempt, Track: track,
			Start: cursor, Duration: exit - cursor,
		})
		att.SetAttr("attempt", strconv.Itoa(info.attempts))
		// The loser of the final hedge pair runs in the shadow of the
		// winning attempt. When the hedge won, the phases belong to the
		// hedge copy, which only started hedgeExtra after the primary:
		// in sequential mode shift them right (the eager schedule folds
		// hedgeExtra into workStart via info.delay() already).
		phaseStart := cursor
		if info.finalHedge != nil {
			addHedgeSpan(inv, info.finalHedge, cursor, exit, track)
			if info.hedgeWon && !eager {
				phaseStart += info.hedgeExtra
			}
		}
		addPhases(att, res, phaseStart, workStart, eager, info.finalBucket)
	}

	// Per-span cost = chronological sum of the span's own charges.
	root.Walk(func(s *obs.Span) {
		var t float64
		for _, e := range s.CostEvents {
			t += e.Amount
		}
		s.Cost = t
	})
	return root
}

// buildUploadSpan lays out the input upload: failed PUT attempts are
// zero-length (a failed PUT transfers nothing and bills nothing), each
// followed by its backoff; the successful PUT closes the span.
func (j *job) buildUploadSpan(root *obs.Span) {
	upDur, upInfo := j.upDur, &j.upInfo
	putDur := upDur - upInfo.backoff
	upload := root.AddChild(&obs.Span{
		Name: "upload-input", Kind: obs.KindUpload, Track: "input",
		Start: 0, Duration: upDur,
	})
	upload.SetAttr("attempts", strconv.Itoa(upInfo.attempts))
	cursor := layoutSteps(upload, upInfo.steps, 0, "input", false)
	put := upload.AddChild(&obs.Span{
		Name: "put", Kind: obs.KindAttempt, Track: "input",
		Start: cursor, Duration: putDur,
	})
	put.SetAttr("attempt", strconv.Itoa(upInfo.attempts))
	if n, ok := j.d.cfg.Store.Head(j.inKey); ok {
		put.SetAttr("bytes", strconv.FormatInt(n, 10))
	}
	attachBucket(put, upInfo.finalBucket)
}

// layoutSteps lays the failed attempts of one retried operation onto
// the parent, advancing the cursor past each attempt, its backoff, and
// (for invocations) the re-dispatch latency. A step's failed hedge (a
// speculative duplicate that also lost) is laid on the operation's
// hedge track, clamped into the step's own region so hedge spans never
// collide. Returns the cursor where the successful attempt begins.
func layoutSteps(parent *obs.Span, steps []retryStep, cursor time.Duration, track string, redispatch bool) time.Duration {
	for k, st := range steps {
		var dur time.Duration
		if st.res != nil {
			dur = st.res.Duration
		}
		stepStart := cursor
		att := parent.AddChild(&obs.Span{
			Name: fmt.Sprintf("attempt-%d", k+1), Kind: obs.KindAttempt, Track: track,
			Start: cursor, Duration: dur,
		})
		att.SetAttr("attempt", strconv.Itoa(k+1))
		att.SetAttr("failed", "true")
		if st.fault != "" {
			att.SetAttr("fault", st.fault)
			att.AddEvent("fault:"+st.fault, cursor+dur, map[string]string{"kind": st.fault})
		}
		attachBucket(att, st.bucket)
		cursor += dur
		if st.backoff > 0 {
			parent.AddChild(&obs.Span{
				Name: "backoff", Kind: obs.KindBackoff, Track: track,
				Start: cursor, Duration: st.backoff,
			})
			cursor += st.backoff
		}
		if redispatch {
			parent.AddChild(&obs.Span{
				Name: "dispatch", Kind: obs.KindDispatch, Track: track,
				Start: cursor, Duration: invokeDispatchLatency,
			})
			cursor += invokeDispatchLatency
		}
		if st.hedge != nil {
			addHedgeSpan(parent, st.hedge, stepStart, cursor, track)
		}
	}
	return cursor
}

// addHedgeSpan lays one losing hedge-pair shadow on the operation's
// dedicated hedge track. The shadow ran concurrently with the main
// track, so it gets its own track (same-track siblings must not
// overlap); its span is clamped into [start+delay, limit] so
// successive hedges stay disjoint and inside the parent.
func addHedgeSpan(parent *obs.Span, h *hedgeRec, start, limit time.Duration, track string) {
	hs := start + h.delay
	if hs > limit {
		hs = limit
	}
	dur := h.billed
	if hs+dur > limit {
		dur = limit - hs
	}
	sp := parent.AddChild(&obs.Span{
		Name: "hedge", Kind: obs.KindAttempt, Track: track + "#hedge",
		Start: hs, Duration: dur,
	})
	sp.SetAttr("hedge", "true")
	sp.SetAttr("billed", h.billed.String())
	if h.fault != "" {
		sp.SetAttr("fault", h.fault)
	}
	attachBucket(sp, h.bucket)
}

// addPhases lays the successful attempt's handler phases consecutively
// from start. In eager mode the function polls S3 for its input after
// initialization, so a wait span bridges the gap up to workStart before
// the first work phase. The attempt's charges are distributed: each S3
// request fee lands on its transfer phase, the rest (invocation fee,
// non-deferred execution) stay on the attempt span.
func addPhases(att *obs.Span, res *lambda.Result, start, workStart time.Duration, eager bool, bucket *obs.CostBucket) {
	cursor := start
	var phases []*obs.Span
	waited := !eager
	for _, ph := range res.Phases {
		if !waited && workPhase(ph.Name) {
			if workStart > cursor {
				att.AddChild(&obs.Span{
					Name: "wait-input", Kind: obs.KindWait, Track: att.Track,
					Start: cursor, Duration: workStart - cursor,
				})
				cursor = workStart
			}
			waited = true
		}
		ps := att.AddChild(&obs.Span{
			Name: ph.Name, Kind: obs.KindPhase, Track: att.Track,
			Start: cursor, Duration: ph.Duration,
		})
		if ph.Bytes > 0 {
			ps.SetAttr("bytes", strconv.FormatInt(ph.Bytes, 10))
		}
		phases = append(phases, ps)
		cursor += ph.Duration
	}

	ri, wi := 0, 0
	for _, e := range bucket.Events() {
		var target *obs.Span
		switch e.Category {
		case "s3:get":
			for ri < len(phases) && phases[ri].Name != "s3-read" {
				ri++
			}
			if ri < len(phases) {
				target = phases[ri]
				ri++
			}
		case "s3:put":
			for wi < len(phases) && phases[wi].Name != "s3-write" {
				wi++
			}
			if wi < len(phases) {
				target = phases[wi]
				wi++
			}
		}
		if target == nil {
			target = att
		}
		target.CostEvents = append(target.CostEvents, e)
	}
}

func workPhase(name string) bool {
	switch name {
	case "s3-read", "compute", "s3-write":
		return true
	}
	return false
}

func attachBucket(s *obs.Span, b *obs.CostBucket) {
	s.CostEvents = append(s.CostEvents, b.Events()...)
}

// failureTrace builds the span tree of a job that never finished: a
// single root carrying every charge the job billed before it gave up
// (failed attempts, cancelled hedges, holds — and the settlements of
// the stages a staged job completed), so obs.SumCosts over a failed
// job's trace still reproduces its charges exactly and serving-level
// cost attribution stays bit-exact under faults.
func (j *job) failureTrace() *obs.Span {
	root := &obs.Span{
		Name: j.id, Kind: obs.KindJob, Track: "coordinator",
		Duration: j.elapsed,
	}
	root.SetAttr("mode", j.rep.Mode)
	root.SetAttr("model", j.d.model.Name)
	root.SetAttr("failed", "true")
	attachBucket(root, j.rootBucket)
	collect := func(ri *retryInfo) {
		for _, s := range ri.steps {
			attachBucket(root, s.bucket)
			if s.hedge != nil {
				attachBucket(root, s.hedge.bucket)
			}
		}
		if ri.finalHedge != nil {
			attachBucket(root, ri.finalHedge.bucket)
		}
		attachBucket(root, ri.finalBucket)
		attachBucket(root, ri.holdBucket)
	}
	collect(&j.upInfo)
	for i := range j.infos {
		collect(&j.infos[i])
	}
	for _, b := range j.partBuckets {
		attachBucket(root, b)
	}
	var total float64
	for _, e := range root.CostEvents {
		total += e.Amount
	}
	root.Cost = total
	return root
}
