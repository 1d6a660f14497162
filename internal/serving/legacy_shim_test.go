package serving

import (
	"time"

	"ampsinf/internal/obs"
)

// legacy_test.go preserves the pre-sim schedulers verbatim as the
// equivalence reference, and its staged loop calls the rejection helpers
// and records the staged scheduler had when it was written. This shim
// keeps that file compiling untouched by adapting those names onto the
// scheduler's single rejection path (results.reject) and keeping the
// end-of-run summary the legacy loops were written against.

// evNone is the legacy event scan's "nothing selected" class.
const evNone = evAdmit + 1

type pendingUnit struct {
	unit     batchUnit
	readyAt  time.Duration
	attempts int
	arrs     []time.Duration
	waits    []time.Duration
}

func (p *pendingUnit) rejected() *unit {
	return &unit{batchUnit: p.unit, arrs: p.arrs, attempts: p.attempts, waits: p.waits}
}

func shedUnit(rep *Report, _ *JobResult, _ *summaryAcc, p *pendingUnit, now time.Duration, h serveHandles, stream, brown bool) {
	ev := h.shed
	if brown {
		rep.BrownoutShed += p.unit.Size
		ev = h.brownoutShed
	}
	legacyReject(rep, p, now, OutcomeShed, ev, stream)
}

func throttleOutUnit(rep *Report, _ *JobResult, _ *summaryAcc, p *pendingUnit, now time.Duration, h serveHandles, stream bool) {
	legacyReject(rep, p, now, OutcomeThrottled, h.admFail, stream)
}

// legacyReject settles a rejected unit into rep's per-request records.
// results folds what it settles, and the legacy loops summarize rep
// once at the end, so the fold lands on a report nobody reads.
func legacyReject(rep *Report, p *pendingUnit, now time.Duration, outcome string, ev obs.EventCounter, stream bool) {
	out := results{rep: &Report{Jobs: rep.Jobs}, retain: !stream}
	out.reject(p.rejected(), now, outcome, ev)
}

// summarize fills a legacy report's aggregates from its per-job results
// in arrival order.
func summarize(rep *Report) {
	acc := summaryAcc{lats: make([]time.Duration, 0, len(rep.Jobs))}
	for i := range rep.Jobs {
		acc.fold(rep, &rep.Jobs[i])
	}
	acc.finalize(rep, len(rep.Jobs))
}
