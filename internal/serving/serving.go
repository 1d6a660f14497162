// Package serving drives concurrent multi-request inference through a
// deployed pipeline on the simulated clock — the serving regime the
// paper's single-inference evaluation stops short of. Requests arrive
// on a workload trace (Poisson, uniform, bursts), each is admitted
// against the account-level concurrent-execution limit, and admitted
// jobs run through the coordinator on one shared platform and billing
// meter while their container pools grow, drain and are reused on the
// discrete-event timeline. Requests that would exceed the limit are
// throttled and retried with seeded equal-jitter exponential backoff,
// so the whole layer is deterministic: same deployment, seed and trace
// produce a byte-identical report.
package serving

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// ThrottlePolicy tunes scheduler-side handling of account-concurrency
// throttles: a request that cannot be admitted backs off and retries.
// The zero value uses the defaults below.
type ThrottlePolicy struct {
	// MaxAttempts caps admission attempts per request (default 10).
	MaxAttempts int
	// BaseBackoff is the wait before the first re-admission attempt
	// (default 100 ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 10 s).
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic equal-jitter stream (0 behaves
	// as seed 1).
	JitterSeed int64
}

func (p ThrottlePolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 10
}

// Validate rejects nonsensical throttle policies before a serving run
// starts.
func (p ThrottlePolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("throttle policy: MaxAttempts %d is negative", p.MaxAttempts)
	}
	if p.BaseBackoff < 0 {
		return fmt.Errorf("throttle policy: BaseBackoff %v is negative", p.BaseBackoff)
	}
	if p.MaxBackoff < 0 {
		return fmt.Errorf("throttle policy: MaxBackoff %v is negative", p.MaxBackoff)
	}
	if p.BaseBackoff > 0 && p.MaxBackoff > 0 && p.MaxBackoff < p.BaseBackoff {
		return fmt.Errorf("throttle policy: MaxBackoff %v < BaseBackoff %v", p.MaxBackoff, p.BaseBackoff)
	}
	return nil
}

// Request outcomes. Only completed requests count toward latency
// aggregates and goodput.
const (
	// OutcomeOK: the request completed and returned a prediction.
	OutcomeOK = "ok"
	// OutcomeShed: admission control rejected the request because its
	// predicted completion could not meet the deadline.
	OutcomeShed = "shed"
	// OutcomeDeadline: the request started but the coordinator failed it
	// fast once its remaining budget could not cover another attempt.
	OutcomeDeadline = "deadline"
	// OutcomeThrottled: admission retries were exhausted by the account
	// concurrency limit (recorded only under TolerateFailures).
	OutcomeThrottled = "throttled"
	// OutcomeFailed: the job failed terminally for any other reason.
	OutcomeFailed = "failed"
	// OutcomeBudgetExhausted: the job faulted and the global retry budget
	// had no tokens left to pay for another attempt, so the coordinator
	// gave up with zero additional spend.
	OutcomeBudgetExhausted = "budget-exhausted"
)

// SLOPolicy makes a serving run deadline-aware: each request carries a
// completion deadline measured from its arrival, propagated into every
// coordinator retry decision, and — with Shed — enforced at admission:
// a request whose predicted completion already misses its deadline is
// rejected outright (explicit OutcomeShed) rather than burning capacity
// on an answer nobody can use. The zero value disables all of it.
type SLOPolicy struct {
	// Deadline is the per-request completion budget from arrival (0 =
	// none). The remaining budget at admission flows into the
	// coordinator, so mid-job retries that cannot fit fail fast.
	Deadline time.Duration
	// Shed enables SLO-aware load shedding at admission, using a running
	// mean of completed service times as the completion predictor.
	// Requires Deadline.
	Shed bool
	// TolerateFailures records failed requests (with their outcome and
	// charges) and keeps serving instead of aborting the whole run —
	// the regime fault-storm experiments need.
	TolerateFailures bool
}

func (p SLOPolicy) enabled() bool { return p.Deadline > 0 || p.Shed || p.TolerateFailures }

// Validate rejects nonsensical SLO policies before a serving run starts.
func (p SLOPolicy) Validate() error {
	if p.Deadline < 0 {
		return fmt.Errorf("slo policy: Deadline %v is negative", p.Deadline)
	}
	if p.Shed && p.Deadline <= 0 {
		return fmt.Errorf("slo policy: Shed requires a positive Deadline")
	}
	return nil
}

// Config wires a serving run to its deployment.
type Config struct {
	// Deployment is the deployed pipeline every request runs through.
	Deployment *coordinator.Deployment
	// Sequential serves each job with the strictly sequential schedule
	// instead of the default overlapped (eager) one.
	Sequential bool
	// Throttle tunes admission backoff.
	Throttle ThrottlePolicy
	// SLO makes the run deadline-aware (propagation, shedding, failure
	// tolerance). The zero value preserves the fail-on-first-error
	// behaviour byte for byte.
	SLO SLOPolicy
	// Pipeline enables staged partition execution overlapped across
	// requests. The scheduler has one admission and settlement path and
	// two executors: with Pipeline and Batch both disabled (zero value,
	// Depth ≤ 1, MaxBatch ≤ 1) each admitted request runs as one whole
	// job; enabling either switches admitted units to the staged
	// executor.
	Pipeline PipelinePolicy
	// Batch coalesces queued requests into shared batched invocations on
	// the staged executor. The zero value (or MaxBatch 1) keeps one
	// invocation per request.
	Batch BatchPolicy
	// Sample head-samples request span trees (see SamplePolicy). The
	// zero value keeps always-on tracing byte for byte.
	Sample SamplePolicy
	// Brownout closes the loop from the Series window stream back into
	// the scheduler: unhealthy windows step a degradation ladder
	// (disable hedging → widen batch window → quantized fallback → hard
	// shed) with hysteresis. Requires Series. The zero value keeps every
	// run byte for byte.
	Brownout BrownoutPolicy
	// Fallback is the pre-planned degraded deployment (same partition
	// plan, quantized weights) brownout swaps admissions onto at
	// BrownoutFallback. It must share the primary deployment's platform
	// so one meter keeps billing everything.
	Fallback *coordinator.Deployment
	// Metrics, when set, receives serving-level counters and histograms.
	Metrics *obs.Metrics
	// Series, when set, receives the windowed time-series stream of the
	// run (queue depth, outcomes, latency, cost) on the simulated clock.
	// The serving loop advances and records it; the caller owns its
	// lifecycle (Close before exporting frames).
	Series *obs.TimeSeries
}

// JobResult reports one served request.
type JobResult struct {
	Index   int
	Arrival time.Duration
	// Start is when the request was admitted and began executing; the
	// gap from Arrival is queueing delay (throttle backoff included).
	Start time.Duration
	Done  time.Duration
	// Queue = Start - Arrival, Latency = Done - Arrival.
	Queue   time.Duration
	Latency time.Duration
	// Cost is the request's marginal charge on the shared meter.
	Cost float64
	// Throttles counts admissions rejected by the concurrency limit
	// before this request got in.
	Throttles  int
	ColdStarts int
	Retries    int
	Faults     int
	// Outcome classifies the request: OutcomeOK, OutcomeShed,
	// OutcomeDeadline, OutcomeThrottled or OutcomeFailed.
	Outcome string
	// Resilience record from the coordinator (zero unless enabled):
	Hedges        int
	HedgeWins     int
	ShortCircuits int
	// BudgetDenied counts retry/hedge attempts this request wanted but
	// the empty global budget refused.
	BudgetDenied int
	WastedSpend  float64
	// Trace is the request's span tree on the absolute serving clock:
	// a request root containing the queueing wait and the shifted
	// coordinator job tree.
	Trace *obs.Span
}

// Report aggregates one serving run.
type Report struct {
	Mode string
	Jobs []JobResult
	// Requests is the number of requests the run served. It equals
	// len(Jobs) for retained runs; streaming runs (ServeStream) keep no
	// per-request results, so this field is the only record of the count.
	Requests int
	// Makespan is the simulated time from the first arrival to the last
	// response; Throughput is completed requests per simulated second.
	Makespan   time.Duration
	Throughput float64
	AvgLatency time.Duration
	P50Latency time.Duration
	P90Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	MaxLatency time.Duration
	AvgQueue   time.Duration
	MaxQueue   time.Duration
	// Throttles are scheduler-level admission rejections by the account
	// concurrency limit (each one was retried after a backoff).
	Throttles  int
	ColdStarts int
	Retries    int
	Faults     int
	// PeakInFlight is the most containers observed executing at any
	// request's start instant.
	PeakInFlight int
	TotalCost    float64
	CostPerJob   float64

	// SLO accounting (populated only when Config.SLO is enabled; latency
	// aggregates above always cover completed requests only):
	SLOActive   bool
	SLODeadline time.Duration
	Completed   int // requests that returned a prediction
	Good        int // completed within the deadline (= Completed when none)
	Shed        int // rejected by admission control
	Deadline    int // failed fast mid-run on the deadline
	Throttled   int // admission retries exhausted (tolerated)
	Failed      int // other terminal failures (tolerated)
	// BudgetExhausted counts requests that failed because the global
	// retry budget refused their recovery attempt (tolerated).
	BudgetExhausted int
	// Goodput is deadline-meeting completions per simulated second;
	// CostPerGood the total spend per such completion (0 when none).
	Goodput     float64
	CostPerGood float64
	// WastedSpend is every dollar that bought no timely answer: the full
	// cost of shed/failed/late requests plus the failed-attempt and
	// cancelled-hedge spend inside completed ones.
	WastedSpend float64

	// Resilience aggregates from the coordinator (zero unless enabled):
	Hedges        int
	HedgeWins     int
	ShortCircuits int
	// BudgetDenied totals retry/hedge attempts refused by the empty
	// global budget across all requests (many of those requests still
	// completed on their in-flight attempt).
	BudgetDenied int

	// Brownout accounting (zero unless the controller is enabled):
	// BrownoutShed counts admissions rejected by the ladder's deepest
	// rung (they also appear in Shed), FallbackServed the requests
	// executed on the quantized fallback deployment, BrownoutDeepest the
	// deepest level reached, and BrownoutTransitions the ladder moves.
	BrownoutShed        int
	FallbackServed      int
	BrownoutDeepest     int
	BrownoutTransitions int
}

// Traces returns the jobs' span trees in arrival order — the input
// obs.SumCostsAll needs to reproduce the shared meter's total when
// every tree was kept. Under span sampling, dropped requests carry no
// tree and are skipped (their charges are still in their JobResult
// Cost, exactly — just not replayable from spans).
func (r *Report) Traces() []*obs.Span {
	roots := make([]*obs.Span, 0, len(r.Jobs))
	for i := range r.Jobs {
		if r.Jobs[i].Trace != nil {
			roots = append(roots, r.Jobs[i].Trace)
		}
	}
	return roots
}

// requests returns the run's request count regardless of whether
// per-job results were retained.
func (r *Report) requests() int {
	if r.Requests > 0 {
		return r.Requests
	}
	return len(r.Jobs)
}

// serveHandles are the serving-level metric and time-series slots,
// resolved once at the start of a run so the per-event loop records
// through pre-resolved handles — index arithmetic, no name lookups.
type serveHandles struct {
	shed, throttles, admFail, deadline, failures, jobs obs.EventCounter
	spansSampled, spansDropped                         obs.EventCounter
	budgetExhausted, brownoutShed, fallback            obs.EventCounter
	cost                                               obs.TotalHandle
	queueSec, latencySec                               obs.HistHandle
	peakInFlight, brownoutLevel                        obs.GaugeHandle
	tsCost                                             obs.SeriesTotalHandle
	tsQueueSec, tsLatencySec                           obs.SeriesHistHandle
	tsQueueDepth, tsBrownoutLevel                      obs.SeriesGaugeHandle
}

func newServeHandles(mx *obs.Metrics, ts *obs.TimeSeries) serveHandles {
	return serveHandles{
		shed:            obs.NewEventCounter(mx, ts, "serving_shed_total"),
		throttles:       obs.NewEventCounter(mx, ts, "serving_throttles_total"),
		admFail:         obs.NewEventCounter(mx, ts, "serving_admission_failures_total"),
		deadline:        obs.NewEventCounter(mx, ts, "serving_deadline_failures_total"),
		failures:        obs.NewEventCounter(mx, ts, "serving_failures_total"),
		jobs:            obs.NewEventCounter(mx, ts, "serving_jobs_total"),
		spansSampled:    obs.NewEventCounter(mx, ts, "serving_spans_sampled_total"),
		spansDropped:    obs.NewEventCounter(mx, ts, "serving_spans_dropped_total"),
		budgetExhausted: obs.NewEventCounter(mx, ts, "serving_budget_exhausted_total"),
		brownoutShed:    obs.NewEventCounter(mx, ts, "serving_brownout_shed_total"),
		fallback:        obs.NewEventCounter(mx, ts, "serving_fallback_total"),
		cost:            mx.TotalHandle("serving_cost_usd_total"),
		queueSec:        mx.HistHandle("serving_queue_seconds"),
		latencySec:      mx.HistHandle("serving_latency_seconds"),
		peakInFlight:    mx.GaugeHandle("serving_peak_in_flight"),
		brownoutLevel:   mx.GaugeHandle("serving_brownout_level"),
		tsCost:          ts.TotalHandle("serving_cost_usd_total"),
		tsQueueSec:      ts.HistHandle("serving_queue_seconds"),
		tsLatencySec:    ts.HistHandle("serving_latency_seconds"),
		tsQueueDepth:    ts.GaugeHandle("serving_queue_depth"),
		tsBrownoutLevel: ts.GaugeHandle("serving_brownout_level"),
	}
}

// Serve runs inputs through the deployment: request i arrives at
// arrivals[i] (non-decreasing offsets from time zero). The platform is
// switched into clocked mode; requests are admitted earliest-ready
// first (ties by index), throttled requests re-enter the queue after a
// backoff, and each admitted job executes through the coordinator with
// its containers occupied until their true lifetimes end. One shared
// meter bills everything, so Report costs are marginal charges on it.
func Serve(cfg Config, inputs []*tensor.Tensor, arrivals []time.Duration) (*Report, error) {
	if err := validate(cfg, len(inputs)); err != nil {
		return nil, err
	}
	if len(arrivals) != len(inputs) {
		return nil, fmt.Errorf("serving: %d arrivals for %d inputs", len(arrivals), len(inputs))
	}
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] < arrivals[i-1] {
			return nil, fmt.Errorf("serving: arrivals not sorted at %d", i)
		}
	}
	return serve(cfg, sim.NewSlice(arrivals), func(i int) *tensor.Tensor { return inputs[i] }, true)
}

// validate rejects a config no serving run can start from; requests is
// the trace length. Serve and ServeStream share it.
func validate(cfg Config, requests int) error {
	dep := cfg.Deployment
	if dep == nil {
		return fmt.Errorf("serving: config needs a deployment")
	}
	if requests == 0 {
		return fmt.Errorf("serving: empty trace")
	}
	for _, err := range []error{
		cfg.Throttle.Validate(), cfg.SLO.Validate(), cfg.Pipeline.Validate(),
		cfg.Batch.Validate(), cfg.Sample.Validate(), cfg.Brownout.Validate(),
	} {
		if err != nil {
			return fmt.Errorf("serving: %w", err)
		}
	}
	if cfg.Brownout.Enabled && cfg.Series == nil {
		return fmt.Errorf("serving: brownout needs a time series to observe")
	}
	if fb := cfg.Fallback; fb != nil {
		if fb.Platform() != dep.Platform() {
			return fmt.Errorf("serving: fallback deployment must share the primary's platform")
		}
		if fb.Partitions() != dep.Partitions() {
			return fmt.Errorf("serving: fallback has %d partitions, primary %d",
				fb.Partitions(), dep.Partitions())
		}
	}
	return nil
}

// backoff draws the equal-jitter wait before re-admission attempt n
// (1-based), its jitter from the run's seeded stream.
func backoff(p ThrottlePolicy, n int, rng *rand.Rand) time.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 10 * time.Second
	}
	return coordinator.EqualJitter(base, max, n, rng.Float64())
}

// requestSpan wraps one job's coordinator trace in a request-level span
// on the absolute serving clock: the root covers arrival to response,
// a queue-wait child attributes the admission delay (throttle backoffs
// laid out as its children), and the job tree — built with job start as
// time zero — is shifted to its true start.
func requestSpan(jr *JobResult, waits []time.Duration, job *obs.Span) *obs.Span {
	root := &obs.Span{
		Name: fmt.Sprintf("request-%d", jr.Index), Kind: obs.KindJob, Track: "serving",
		Start: jr.Arrival, Duration: jr.Latency,
	}
	root.SetAttr("arrival", jr.Arrival.String())
	root.SetAttr("throttles", strconv.Itoa(jr.Throttles))
	if jr.Outcome != "" && jr.Outcome != OutcomeOK {
		root.SetAttr("outcome", jr.Outcome)
	}
	if jr.Queue > 0 {
		q := root.AddChild(&obs.Span{
			Name: "queue-wait", Kind: obs.KindWait, Track: "serving",
			Start: jr.Arrival, Duration: jr.Queue,
		})
		q.SetAttr("throttles", strconv.Itoa(jr.Throttles))
		// Backoffs sit at the tail of the wait: the request was turned
		// away at each re-admission instant and slept until the next.
		cursor := jr.Start
		for i := len(waits) - 1; i >= 0; i-- {
			cursor -= waits[i]
		}
		for i, w := range waits {
			b := q.AddChild(&obs.Span{
				Name: "throttle-backoff", Kind: obs.KindBackoff, Track: "serving",
				Start: cursor, Duration: w,
			})
			b.SetAttr("attempt", strconv.Itoa(i+1))
			b.AddEvent("fault:throttle", cursor, map[string]string{"kind": "throttle"})
			cursor += w
		}
	}
	if job != nil {
		obs.Shift(job, jr.Start)
		root.AddChild(job)
	}
	return root
}

// summaryAcc folds settled requests into a report's aggregates one at
// a time, in settlement order, so both entry points summarize the same
// way and streaming runs need no per-job results. Latency and queueing aggregates cover completed requests
// only; shed and failed requests are counted by outcome, their spend
// folded into WastedSpend (a non-answer buys nothing).
type summaryAcc struct {
	lats         []time.Duration
	latSum, qSum time.Duration
}

func (a *summaryAcc) fold(rep *Report, jr *JobResult) {
	rep.ColdStarts += jr.ColdStarts
	rep.Retries += jr.Retries
	rep.Faults += jr.Faults
	rep.TotalCost += jr.Cost
	rep.Hedges += jr.Hedges
	rep.HedgeWins += jr.HedgeWins
	rep.ShortCircuits += jr.ShortCircuits
	rep.BudgetDenied += jr.BudgetDenied
	switch jr.Outcome {
	case OutcomeShed:
		rep.Shed++
	case OutcomeDeadline:
		rep.Deadline++
	case OutcomeThrottled:
		rep.Throttled++
	case OutcomeFailed:
		rep.Failed++
	case OutcomeBudgetExhausted:
		rep.BudgetExhausted++
	default: // "" (legacy) or OutcomeOK
		rep.Completed++
		a.lats = append(a.lats, jr.Latency)
		a.latSum += jr.Latency
		a.qSum += jr.Queue
		if jr.Latency > rep.MaxLatency {
			rep.MaxLatency = jr.Latency
		}
		if jr.Queue > rep.MaxQueue {
			rep.MaxQueue = jr.Queue
		}
		if rep.SLODeadline == 0 || jr.Latency <= rep.SLODeadline {
			rep.Good++
		}
		rep.WastedSpend += jr.WastedSpend
		return
	}
	rep.WastedSpend += jr.Cost
}

func (a *summaryAcc) finalize(rep *Report, requests int) {
	if rep.Completed > 0 {
		n := time.Duration(rep.Completed)
		rep.AvgLatency = a.latSum / n
		rep.AvgQueue = a.qSum / n
		slices.Sort(a.lats) // the accumulator's own copy; nothing reads it in arrival order
		rep.P50Latency = workload.SortedPercentile(a.lats, 50)
		rep.P90Latency = workload.SortedPercentile(a.lats, 90)
		rep.P95Latency = workload.SortedPercentile(a.lats, 95)
		rep.P99Latency = workload.SortedPercentile(a.lats, 99)
	}
	rep.CostPerJob = rep.TotalCost / float64(requests)
	if rep.Makespan > 0 {
		rep.Throughput = float64(rep.Completed) / rep.Makespan.Seconds()
		rep.Goodput = float64(rep.Good) / rep.Makespan.Seconds()
	}
	if rep.Good > 0 {
		rep.CostPerGood = rep.TotalCost / float64(rep.Good)
	}
}

// Summary formats the report's aggregates deterministically.
func (r *Report) Summary() string {
	var b strings.Builder
	r.writeSummary(&b)
	return b.String()
}

// Render formats the full report — aggregates plus one line per request
// — deterministically: same run, same bytes.
func (r *Report) Render() string {
	var b strings.Builder
	r.writeSummary(&b)
	for i := range r.Jobs {
		jr := &r.Jobs[i]
		fmt.Fprintf(&b, "  req %4d: arrive %v start %v done %v queue %v latency %v throttles %d cost $%.8f",
			jr.Index, jr.Arrival, jr.Start, jr.Done, jr.Queue, jr.Latency, jr.Throttles, jr.Cost)
		if jr.Outcome != "" && jr.Outcome != OutcomeOK {
			fmt.Fprintf(&b, " outcome=%s", jr.Outcome)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (r *Report) writeSummary(b *strings.Builder) {
	fmt.Fprintf(b, "serving: %d requests, mode %s\n", r.requests(), r.Mode)
	fmt.Fprintf(b, "  makespan %v, throughput %.4f req/s\n", r.Makespan, r.Throughput)
	fmt.Fprintf(b, "  latency avg %v p50 %v p90 %v p95 %v p99 %v max %v\n",
		r.AvgLatency, r.P50Latency, r.P90Latency, r.P95Latency, r.P99Latency, r.MaxLatency)
	fmt.Fprintf(b, "  queueing avg %v max %v\n", r.AvgQueue, r.MaxQueue)
	fmt.Fprintf(b, "  throttles %d, cold starts %d, retries %d, faults %d, peak in-flight %d\n",
		r.Throttles, r.ColdStarts, r.Retries, r.Faults, r.PeakInFlight)
	fmt.Fprintf(b, "  cost total $%.6f, per request $%.8f\n", r.TotalCost, r.CostPerJob)
	// Resilience lines appear only when the matching policies did
	// something, so zero-policy runs render byte-identically to before.
	if r.SLOActive {
		fmt.Fprintf(b, "  outcomes: ok %d, shed %d, deadline %d, throttled %d, failed %d\n",
			r.Completed, r.Shed, r.Deadline, r.Throttled, r.Failed)
		fmt.Fprintf(b, "  slo %v: good %d, goodput %.4f req/s, cost per good $%.8f, wasted $%.6f\n",
			r.SLODeadline, r.Good, r.Goodput, r.CostPerGood, r.WastedSpend)
	}
	if r.Hedges > 0 || r.ShortCircuits > 0 {
		fmt.Fprintf(b, "  hedges %d (wins %d), breaker short-circuits %d\n",
			r.Hedges, r.HedgeWins, r.ShortCircuits)
	}
	if r.BudgetDenied > 0 || r.BudgetExhausted > 0 {
		fmt.Fprintf(b, "  retry budget: denied %d attempts, exhausted outcomes %d\n",
			r.BudgetDenied, r.BudgetExhausted)
	}
	if r.BrownoutTransitions > 0 || r.BrownoutShed > 0 || r.FallbackServed > 0 {
		fmt.Fprintf(b, "  brownout: transitions %d, deepest %s, shed %d, fallback served %d\n",
			r.BrownoutTransitions, BrownoutLevelName(r.BrownoutDeepest),
			r.BrownoutShed, r.FallbackServed)
	}
}
