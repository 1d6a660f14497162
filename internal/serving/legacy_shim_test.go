package serving

import (
	"time"
)

// legacy_test.go preserves the pre-sim schedulers verbatim as the
// equivalence reference, and its staged loop calls the rejection helpers
// and records the staged scheduler had when it was written. This shim
// keeps that file compiling untouched by adapting those names onto the
// scheduler's single rejection path (results.reject).

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
	out := results{rep: rep, retain: !stream}
	ev := h.shed
	if brown {
		rep.BrownoutShed += p.unit.Size
		ev = h.brownoutShed
	}
	out.reject(p.rejected(), now, OutcomeShed, ev)
}

func throttleOutUnit(rep *Report, _ *JobResult, _ *summaryAcc, p *pendingUnit, now time.Duration, h serveHandles, stream bool) {
	out := results{rep: rep, retain: !stream}
	out.reject(p.rejected(), now, OutcomeThrottled, h.admFail)
}
