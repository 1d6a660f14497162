// Package core is the public face of AMPS-Inf: an autonomous framework
// that accepts a pre-trained model (description + weights), derives the
// cost-optimal partitioning and memory provisioning under a response-time
// SLO (paper Sec. 3), deploys the partitions as serverless functions
// (Sec. 4), and serves inference requests with intermediate activations
// staged through object storage.
//
// Typical use:
//
//	fw := core.NewFramework(core.Options{})
//	svc, err := fw.Submit(model, weights, core.SubmitOptions{SLO: 30 * time.Second})
//	rep, err := svc.Infer(image)
//	fmt.Println(rep.Completion, rep.Cost, tensor.ArgMax(rep.Output))
package core

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/serving"
	"ampsinf/internal/tensor"
)

// Options configures a Framework. Zero values create a self-contained
// simulated environment with the calibrated defaults.
type Options struct {
	Platform *lambda.Platform
	Store    *s3.Store
	Meter    *billing.Meter
	Perf     *perf.Params
	// Faults installs a fault injector on the platform and S3 store the
	// framework ends up with (nil = fault-free).
	Faults *faults.Injector
	// Trace installs the tracer as the meter's charge observer and
	// threads it through deployments, so every job's span tree (with
	// exact cost attribution) lands in Trace.Jobs() (see internal/obs).
	Trace *obs.Tracer
	// Metrics threads a metrics registry through the platform, store and
	// coordinator (counters, gauges, histograms; see internal/obs).
	Metrics *obs.Metrics
	// Series threads a windowed time-series stream through the platform,
	// coordinator and serving layer, keying per-window activity to the
	// simulated clock (see obs.TimeSeries).
	Series *obs.TimeSeries
}

// Framework owns the platform bindings and runs the Optimizer +
// Coordinator pipeline for submitted models.
type Framework struct {
	platform *lambda.Platform
	store    *s3.Store
	meter    *billing.Meter
	perf     perf.Params
	tracer   *obs.Tracer
	metrics  *obs.Metrics
	series   *obs.TimeSeries
}

// NewFramework builds a framework, creating any environment pieces not
// supplied.
func NewFramework(opts Options) *Framework {
	meter := opts.Meter
	if meter == nil {
		meter = &billing.Meter{}
	}
	p := perf.Default()
	if opts.Perf != nil {
		p = *opts.Perf
	}
	platform := opts.Platform
	if platform == nil {
		platform = lambda.New(meter, p)
	}
	store := opts.Store
	if store == nil {
		store = s3.New(s3.DefaultConfig(), meter)
	}
	if opts.Faults != nil {
		platform.SetInjector(opts.Faults)
		store.SetInjector(opts.Faults)
		// Burst mode needs simulated time for store draws; the lambda
		// path passes its clock offset explicitly inside Invoke.
		opts.Faults.SetClock(platform.Now)
	}
	if opts.Trace != nil {
		meter.SetObserver(opts.Trace.RecordCost)
	}
	if opts.Metrics != nil {
		platform.SetMetrics(opts.Metrics)
		store.SetMetrics(opts.Metrics)
	}
	if opts.Series != nil {
		platform.SetSeries(opts.Series)
	}
	return &Framework{
		platform: platform, store: store, meter: meter, perf: p,
		tracer: opts.Trace, metrics: opts.Metrics, series: opts.Series,
	}
}

// Meter returns the framework's billing meter.
func (f *Framework) Meter() *billing.Meter { return f.meter }

// Platform returns the underlying serverless platform.
func (f *Framework) Platform() *lambda.Platform { return f.platform }

// Store returns the staging object store.
func (f *Framework) Store() *s3.Store { return f.store }

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// SLO is the response-time objective (0 = cost-optimal, no deadline).
	SLO time.Duration
	// MaxLayersPerPartition is the paper's search-space cap (Eq. 6).
	MaxLayersPerPartition int
	// NamePrefix namespaces the deployed functions.
	NamePrefix string
	// SkipCompute deploys in timing-only mode (see coordinator.Config).
	SkipCompute bool
	// QuantizeBits ships 8- or 4-bit quantized weights (0 = float32),
	// shrinking deployment packages 4-8× — the paper's future-work path
	// for models whose layers outgrow the platform size limit.
	QuantizeBits int
	// Retry makes serving resilient to transient platform faults (see
	// internal/cloud/faults); the zero value aborts jobs on the first
	// error.
	Retry coordinator.RetryPolicy
	// Hedge launches speculative duplicate invocations of slow
	// partitions (zero value disables hedging).
	Hedge coordinator.HedgePolicy
	// Breaker short-circuits invocations of persistently failing
	// partition functions (zero value disables the breaker).
	Breaker coordinator.BreakerPolicy
	// Budget is the global retry budget shared across every retry and
	// hedge the deployment attempts (zero value leaves retries
	// unbudgeted).
	Budget coordinator.BudgetPolicy
	// FallbackBits, when non-zero, additionally deploys a quantized
	// fallback copy of the plan (8 or 4 bits) for brownout's plan-swap
	// rung; Service.Serve wires it in automatically.
	FallbackBits int
}

// coPlanProbe is the largest batch size Submit's co-plan evaluates.
const coPlanProbe = 8

// Service is a deployed, ready-to-serve model.
type Service struct {
	framework  *Framework
	model      *nn.Model
	Plan       *optimizer.Plan
	deployment *coordinator.Deployment
	// fallback is the quantized copy of the same plan deployed when the
	// submission asked for FallbackBits; brownout swaps admissions onto
	// it at its plan-swap rung.
	fallback *coordinator.Deployment
	// BatchPlan is the optimizer's batch-size co-plan for the deployed
	// partitioning: per-size time/cost evaluations against the chosen
	// memory blocks and the SLO, and the recommended size (Chosen).
	BatchPlan *optimizer.BatchPlan
	// PlanningTime is the optimizer's wall-clock overhead (the paper
	// reports a few seconds on a laptop).
	PlanningTime time.Duration
}

// Submit runs the full AMPS-Inf pipeline: profile, optimize, split,
// package and deploy. The returned Service serves inference immediately.
func (f *Framework) Submit(model *nn.Model, weights nn.Weights, opts SubmitOptions) (*Service, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := modelfmt.CheckQuantBits(opts.QuantizeBits); err != nil {
		return nil, fmt.Errorf("core: QuantizeBits: %w", err)
	}
	if err := modelfmt.CheckQuantBits(opts.FallbackBits); err != nil {
		return nil, fmt.Errorf("core: FallbackBits: %w", err)
	}
	quota := f.platform.Quota()
	start := time.Now()
	opt, err := optimizer.New(optimizer.Request{
		Model:                 model,
		Perf:                  f.perf,
		SLO:                   opts.SLO,
		MaxLayersPerPartition: opts.MaxLayersPerPartition,
		Quota:                 &quota,
		WeightScale:           modelfmt.CompressionScale(opts.QuantizeBits),
	})
	if err != nil {
		return nil, fmt.Errorf("core: optimizing %q: %w", model.Name, err)
	}
	plan, err := opt.Optimize()
	if err != nil {
		return nil, fmt.Errorf("core: optimizing %q: %w", model.Name, err)
	}
	// Co-plan the invocation batch size against the plan's memory blocks
	// and the SLO, probing sizes up to coPlanProbe.
	batchPlan, err := opt.CoPlanBatch(plan, coPlanProbe)
	if err != nil {
		return nil, fmt.Errorf("core: co-planning batch for %q: %w", model.Name, err)
	}
	planning := time.Since(start)

	prefix := opts.NamePrefix
	if prefix == "" {
		prefix = "ampsinf"
	}
	cfg := coordinator.Config{
		Platform: f.platform, Store: f.store, NamePrefix: prefix,
		SkipCompute: opts.SkipCompute, QuantizeBits: opts.QuantizeBits,
		Retry: opts.Retry, Hedge: opts.Hedge,
		Breaker: opts.Breaker, Budget: opts.Budget, Tracer: f.tracer,
		Metrics: f.metrics, Series: f.series,
	}
	dep, err := coordinator.Deploy(cfg, model, weights, plan)
	if err != nil {
		return nil, fmt.Errorf("core: deploying %q: %w", model.Name, err)
	}
	var fb *coordinator.Deployment
	if opts.FallbackBits != 0 {
		// The fallback reuses the exact partition plan — same stage count,
		// same functions-per-request shape — with quantized packages, so a
		// mid-run swap never changes the pipeline's structure, only the
		// bytes each stage loads.
		cfg.NamePrefix, cfg.QuantizeBits = prefix+"-fallback", opts.FallbackBits
		fb, err = coordinator.Deploy(cfg, model, weights, plan)
		if err != nil {
			dep.Teardown()
			return nil, fmt.Errorf("core: deploying %q fallback: %w", model.Name, err)
		}
	}
	return &Service{
		framework: f, model: model, Plan: plan, BatchPlan: batchPlan,
		deployment: dep, fallback: fb, PlanningTime: planning,
	}, nil
}

// Infer serves one input with the default (eager, overlapped) schedule.
func (s *Service) Infer(input *tensor.Tensor) (*coordinator.Report, error) {
	return s.deployment.RunEager(input)
}

// InferSequential serves one input with strictly sequential invocations
// (the formulation's execution model).
func (s *Service) InferSequential(input *tensor.Tensor) (*coordinator.Report, error) {
	return s.deployment.RunSequential(input)
}

// InferBatchParallel serves the inputs in concurrently-running pipelines.
func (s *Service) InferBatchParallel(inputs []*tensor.Tensor) (*coordinator.BatchReport, error) {
	return s.deployment.RunBatchParallel(inputs)
}

// InferBatchSequential serves the inputs one after another on warm
// functions.
func (s *Service) InferBatchSequential(inputs []*tensor.Tensor) (*coordinator.BatchReport, error) {
	return s.deployment.RunBatchSequential(inputs)
}

// InferBatched stacks the inputs into one tensor and serves them in a
// single pipeline pass.
func (s *Service) InferBatched(inputs []*tensor.Tensor) (*coordinator.Report, error) {
	return s.deployment.RunBatched(inputs)
}

// Serve runs the open-loop serving scheduler (internal/serving) on this
// service's deployment. The config's Deployment is filled in, Metrics,
// Series and Fallback default to the framework's registry, series and
// the submission's fallback deployment; every serving policy (pipeline,
// batch, brownout, SLO, ...) is the config's own. A batching policy's
// MaxBatch is clamped into the optimizer co-plan's feasible range, so
// serving never stacks a batch the planned memory blocks cannot hold.
// MaxBatch < 0 asks for the co-plan's recommended size.
func (s *Service) Serve(inputs []*tensor.Tensor, arrivals []time.Duration, cfg serving.Config) (*serving.Report, error) {
	cfg.Deployment = s.deployment
	if cfg.Metrics == nil {
		cfg.Metrics = s.framework.metrics
	}
	if cfg.Series == nil {
		cfg.Series = s.framework.series
	}
	if s.BatchPlan != nil {
		// The optimizer's co-planned batch size, for comparison against
		// the batch sizes the admission window actually chooses.
		cfg.Series.GaugeHandle("serving_batch_coplanned").Set(0, float64(s.BatchPlan.Chosen))
	}
	if cfg.Batch.MaxBatch < 0 {
		cfg.Batch.MaxBatch = s.BatchPlan.Chosen
	} else if cfg.Batch.MaxBatch > 1 {
		cfg.Batch.MaxBatch = s.BatchPlan.Clamp(cfg.Batch.MaxBatch)
	}
	if cfg.Fallback == nil {
		cfg.Fallback = s.fallback
	}
	return serving.Serve(cfg, inputs, arrivals)
}

// ColdStart resets every partition container, so the next job measures a
// cold end-to-end serving time (used by the experiment harness).
func (s *Service) ColdStart() {
	for _, name := range s.deployment.FunctionNames() {
		s.framework.platform.ResetWarm(name)
	}
}

// Deployment exposes the underlying coordinator deployment, so
// concurrent serving schedulers (internal/serving) can drive it on the
// shared platform directly.
func (s *Service) Deployment() *coordinator.Deployment { return s.deployment }

// Close tears the deployment (and any fallback) down.
func (s *Service) Close() {
	s.deployment.Teardown()
	if s.fallback != nil {
		s.fallback.Teardown()
	}
}

// Fallback exposes the quantized fallback deployment, if the submission
// requested one via FallbackBits (nil otherwise).
func (s *Service) Fallback() *coordinator.Deployment { return s.fallback }

// Partitions reports how many lambdas serve the model.
func (s *Service) Partitions() int { return s.deployment.Partitions() }

// Model returns the served model.
func (s *Service) Model() *nn.Model { return s.model }

// Breakdown splits one job report into the paper's Fig 5/6 quantities:
// the summed model+weights loading time across the job's lambdas, and
// the prediction time (input/output transfers + compute).
func Breakdown(rep *coordinator.Report) (load, predict time.Duration) {
	for _, lr := range rep.PerLambda {
		load += lr.Load
		predict += lr.Read + lr.Compute + lr.Write
	}
	return load, predict
}
