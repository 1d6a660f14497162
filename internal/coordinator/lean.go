package coordinator

import (
	"fmt"

	"ampsinf/internal/modelfmt"
	"ampsinf/internal/obs"
	"ampsinf/internal/tensor"
)

// A lean job (RunOptions.Lean, StagedOptions.Lean — internal/serving's
// streaming schedulers) runs on a pooled job record (see job.go): job
// id, S3 keys, invocation payloads, result and retry-record slices and
// the Report itself are recycled through ReleaseReport. Every simulated
// charge, fault draw and metric update is byte-identical to a traced
// job's, because billing and timing depend only on payload sizes and
// the injector's draw sequence — never on key contents or tensor data.
//
// Under Config.SkipCompute a pooled job additionally runs on one cached
// encoded zero tensor per batch size for the input upload and each
// partition's output (leanEncoding): SkipCompute handlers never read
// tensor contents, and an encoding's bytes depend only on its shape,
// so recycled encodings are indistinguishable from per-job ones. The
// cached encodings also unlock the handler fast path, which routes a
// recognized pooled payload past parsePayload, tensor decode/encode and
// store copies (GetObjectSize/PutObjectStable).

// leanEncoding caches the encoded zero tensors for one batch size.
type leanEncoding struct {
	batch int
	input []byte   // EncodeTensor of a zero input tensor
	parts [][]byte // per partition: EncodeTensor of its zero output
}

// leanRoute maps one pooled job's payload to its job and partition, so
// the handler fast path skips parsePayload and key formatting.
type leanRoute struct {
	j    *job
	part int
}

// leanEncodingLocked returns the cached zero-tensor encodings for the
// input's batch size, building them on first sight; begin has held the
// input's other dimensions to the model's. Callers hold leanMu.
func (d *Deployment) leanEncodingLocked(input *tensor.Tensor) *leanEncoding {
	shape := input.Shape()
	enc := d.leanEnc[shape[0]]
	if enc == nil {
		enc = &leanEncoding{
			batch: shape[0],
			input: modelfmt.EncodeTensor(tensor.New(shape...)),
			parts: make([][]byte, len(d.parts)),
		}
		for i, p := range d.parts {
			out := p.model.Output().OutShape.Clone()
			out[0] = shape[0]
			enc.parts[i] = modelfmt.EncodeTensor(tensor.New(out...))
		}
		if d.leanEnc == nil {
			d.leanEnc = make(map[int]*leanEncoding)
		}
		d.leanEnc[shape[0]] = enc
	}
	return enc
}

// leanRouteFor resolves a payload to its lean route; ok only when the
// payload belongs to this partition and the job's cached encodings are
// live (the handler fast path needs them for its output bytes).
func (d *Deployment) leanRouteFor(p *partition, payload []byte) (leanRoute, bool) {
	d.leanMu.Lock()
	rt, ok := d.leanRoutes[string(payload)]
	ok = ok && rt.part == p.index && rt.j.enc != nil
	d.leanMu.Unlock()
	if !ok {
		return leanRoute{}, false
	}
	return rt, true
}

// jobHandles holds the pre-resolved job-level telemetry handles for
// the deployment's registries, resolved once at Deploy (the
// coordinator's registries are fixed for a deployment's lifetime).
type jobHandles struct {
	jobsSeq, jobsEager, jobsPipe obs.CounterHandle
	jobsFailed                   obs.CounterHandle
	completion                   obs.HistHandle
	cost                         obs.TotalHandle
	retries, faults              obs.CounterHandle
	backoff                      obs.TotalHandle
	hedges, hedgeWins            obs.CounterHandle
	shortCircuits                obs.CounterHandle
	wastedSpend                  obs.TotalHandle
	phaseInit, phaseLoad         obs.TotalHandle
	phaseRead, phaseCompute      obs.TotalHandle
	phaseWrite                   obs.TotalHandle

	tsJobsSeq, tsJobsEager, tsJobsPipe obs.SeriesCounterHandle
	tsCompletion                       obs.SeriesHistHandle
	tsCost                             obs.SeriesTotalHandle
	tsRetries                          obs.SeriesCounterHandle

	deniedRetry, deniedHedge obs.EventCounter // coordinator_budget_denied_total{kind=...}
	tsBudgetTokens           obs.SeriesGaugeHandle
}

// partHandles holds one partition function's resilience-event handles,
// whose names embed the function name: formatted once at Deploy.
type partHandles struct {
	tsHedgesFired, tsHedgesWon obs.SeriesCounterHandle
	transitions                [3]obs.EventCounter // by the breakerState entered
	tsBreakerState             obs.SeriesGaugeHandle
}

func (d *Deployment) resolvePartHandles(fn string) (h partHandles) {
	ts := d.cfg.Series
	h.tsHedgesFired = ts.CounterHandle(fmt.Sprintf("coordinator_hedges_fired_total{function=%q}", fn))
	h.tsHedgesWon = ts.CounterHandle(fmt.Sprintf("coordinator_hedges_won_total{function=%q}", fn))
	for to := range h.transitions {
		h.transitions[to] = obs.NewEventCounter(d.cfg.Metrics, ts, fmt.Sprintf("coordinator_breaker_transitions_total{function=%q,to=%q}", fn, breakerState(to)))
	}
	h.tsBreakerState = ts.GaugeHandle(fmt.Sprintf("coordinator_breaker_state{function=%q}", fn))
	return h
}

func (d *Deployment) resolveJobHandles() {
	mx, ts := d.cfg.Metrics, d.cfg.Series
	d.jh = jobHandles{
		jobsSeq:       mx.CounterHandle(`coordinator_jobs_total{mode="sequential"}`),
		jobsEager:     mx.CounterHandle(`coordinator_jobs_total{mode="eager"}`),
		jobsPipe:      mx.CounterHandle(`coordinator_jobs_total{mode="pipelined"}`),
		jobsFailed:    mx.CounterHandle("coordinator_jobs_failed_total"),
		completion:    mx.HistHandle("coordinator_job_completion_seconds"),
		cost:          mx.TotalHandle("coordinator_job_cost_usd_total"),
		retries:       mx.CounterHandle("coordinator_retries_total"),
		faults:        mx.CounterHandle("coordinator_faults_absorbed_total"),
		backoff:       mx.TotalHandle("coordinator_backoff_seconds_total"),
		hedges:        mx.CounterHandle("coordinator_hedges_total"),
		hedgeWins:     mx.CounterHandle("coordinator_hedge_wins_total"),
		shortCircuits: mx.CounterHandle("coordinator_breaker_short_circuits_total"),
		wastedSpend:   mx.TotalHandle("coordinator_wasted_spend_usd_total"),
		phaseInit:     mx.TotalHandle(`coordinator_phase_seconds_total{phase="init"}`),
		phaseLoad:     mx.TotalHandle(`coordinator_phase_seconds_total{phase="load"}`),
		phaseRead:     mx.TotalHandle(`coordinator_phase_seconds_total{phase="read"}`),
		phaseCompute:  mx.TotalHandle(`coordinator_phase_seconds_total{phase="compute"}`),
		phaseWrite:    mx.TotalHandle(`coordinator_phase_seconds_total{phase="write"}`),

		tsJobsSeq:    ts.CounterHandle(`coordinator_jobs_total{mode="sequential"}`),
		tsJobsEager:  ts.CounterHandle(`coordinator_jobs_total{mode="eager"}`),
		tsJobsPipe:   ts.CounterHandle(`coordinator_jobs_total{mode="pipelined"}`),
		tsCompletion: ts.HistHandle("coordinator_job_completion_seconds"),
		tsCost:       ts.TotalHandle("coordinator_job_cost_usd_total"),
		tsRetries:    ts.CounterHandle("coordinator_retries_total"),

		deniedRetry:    obs.NewEventCounter(mx, ts, `coordinator_budget_denied_total{kind="retry"}`),
		deniedHedge:    obs.NewEventCounter(mx, ts, `coordinator_budget_denied_total{kind="hedge"}`),
		tsBudgetTokens: ts.GaugeHandle("coordinator_retry_budget_tokens"),
	}
}
