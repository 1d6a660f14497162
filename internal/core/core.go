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
//
// Submit plans, co-plans the batch size and deploys. A plan chosen
// elsewhere — a baseline's, a fixed memory block's — is deployed with
// Framework.Deploy, whose coordinator.Config carries only the
// deployment's policy: the framework wires every deployment to its
// platform, store, tracer, registry and series, and is the one place
// outside the benchmark that calls coordinator.Deploy, as Service.Serve
// is for serving.Serve.
//
// A Service runs jobs two ways: Infer serves one input (an image, or a
// tensor.Stack of images as one batched pass) and Serve drives a request
// trace through the serving scheduler. Any other job shape — the
// sequential schedule, a deadline — is a coordinator.RunOptions on
// Service.Deployment().Run; parallel per-image pipelines are ColdStart
// before each Infer.
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

// Options configures a Framework. The zero value is a fault-free,
// unobserved simulated cloud with the calibrated defaults.
type Options struct {
	// Faults installs a fault injector on the framework's platform and S3
	// store (nil = fault-free).
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

// Framework owns one simulated cloud — billing meter, lambda platform
// and S3 store — and runs the Optimizer + Coordinator pipeline for
// submitted models.
type Framework struct {
	platform *lambda.Platform
	store    *s3.Store
	meter    *billing.Meter
	tracer   *obs.Tracer
	metrics  *obs.Metrics
	series   *obs.TimeSeries
}

// NewFramework builds a framework on a fresh simulated cloud with the
// calibrated defaults, wired to the injector, tracer, registry and
// series opts names. It is the one place that cloud is put together.
func NewFramework(opts Options) *Framework {
	meter := &billing.Meter{}
	platform := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
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
		platform: platform, store: store, meter: meter,
		tracer: opts.Trace, metrics: opts.Metrics, series: opts.Series,
	}
}

// Meter returns the framework's billing meter.
func (f *Framework) Meter() *billing.Meter { return f.meter }

// Platform returns the underlying serverless platform.
func (f *Framework) Platform() *lambda.Platform { return f.platform }

// Store returns the S3 store that stages intermediate activations.
func (f *Framework) Store() *s3.Store { return f.store }

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// SLO is the response-time objective (0 = cost-optimal, no deadline).
	SLO time.Duration
	// MaxLayersPerPartition is the paper's search-space cap (Eq. 6).
	MaxLayersPerPartition int
	// Deploy is the deployment's policy, passed to Framework.Deploy.
	// Its QuantizeBits also scales the weight bytes the planner packs
	// into each partition: quantized packages (8 or 4 bits) shrink 4-8×,
	// the paper's future-work path for models whose layers outgrow the
	// platform size limit.
	Deploy coordinator.Config
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
	Plan       *optimizer.Plan
	deployment *coordinator.Deployment
	// fallback is the quantized copy of the same plan deployed when the
	// submission asked for FallbackBits; brownout swaps admissions onto
	// it at its plan-swap rung.
	fallback *coordinator.Deployment
	// BatchPlan is the optimizer's batch-size co-plan for the deployed
	// partitioning: per-size time/cost evaluations against the chosen
	// memory blocks and the SLO, and the recommended size (Chosen). A
	// Service made by Deploy has none.
	BatchPlan *optimizer.BatchPlan
	// PlanningTime is the optimizer's wall-clock overhead (the paper
	// reports a few seconds on a laptop).
	PlanningTime time.Duration
}

// Submit runs the full AMPS-Inf pipeline: profile, optimize, co-plan the
// batch size, then Deploy the plan (and its quantized fallback, when
// opts asks for one). The returned Service serves inference immediately.
func (f *Framework) Submit(model *nn.Model, weights nn.Weights, opts SubmitOptions) (*Service, error) {
	if model == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := modelfmt.CheckQuantBits(opts.Deploy.QuantizeBits); err != nil {
		return nil, fmt.Errorf("core: QuantizeBits: %w", err)
	}
	if err := modelfmt.CheckQuantBits(opts.FallbackBits); err != nil {
		return nil, fmt.Errorf("core: FallbackBits: %w", err)
	}
	quota := f.platform.Quota()
	start := time.Now()
	opt, err := optimizer.New(optimizer.Request{
		Model:                 model,
		Perf:                  f.platform.Perf(),
		SLO:                   opts.SLO,
		MaxLayersPerPartition: opts.MaxLayersPerPartition,
		Quota:                 &quota,
		WeightScale:           modelfmt.CompressionScale(opts.Deploy.QuantizeBits),
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

	cfg := opts.Deploy
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "ampsinf"
	}
	svc, err := f.Deploy(model, weights, plan, cfg)
	if err != nil {
		return nil, err
	}
	if opts.FallbackBits != 0 {
		// The fallback reuses the exact partition plan — same stage count,
		// same functions-per-request shape — with quantized packages, so a
		// mid-run swap never changes the pipeline's structure, only the
		// bytes each stage loads.
		cfg.NamePrefix += "-fallback"
		cfg.QuantizeBits = opts.FallbackBits
		fb, err := f.Deploy(model, weights, plan, cfg)
		if err != nil {
			svc.Close()
			return nil, fmt.Errorf("core: fallback: %w", err)
		}
		svc.fallback = fb.deployment
	}
	svc.BatchPlan, svc.PlanningTime = batchPlan, planning
	return svc, nil
}

// Deploy deploys plan — from an optimizer run on model — as partition
// functions on the framework's cloud. cfg carries only the deployment's
// policy (names, timing-only mode, quantization, retries, hedges,
// breakers, budget); the framework fills in its platform, tracer,
// metrics and series, and its S3 store unless cfg.Store names another
// stage.Store. A cfg that sets the platform or a telemetry sink is
// refused: every deployment reports to the cloud it runs on. The
// Service has no batch co-plan. Outside the benchmark, it is the one
// place a plan is deployed.
func (f *Framework) Deploy(model *nn.Model, weights nn.Weights, plan *optimizer.Plan, cfg coordinator.Config) (*Service, error) {
	if cfg.Platform != nil || cfg.Tracer != nil || cfg.Metrics != nil || cfg.Series != nil {
		return nil, fmt.Errorf("core: deploying %q: the platform, tracer, metrics and series are the framework's, not the config's", model.Name)
	}
	cfg.Platform, cfg.Tracer, cfg.Metrics, cfg.Series = f.platform, f.tracer, f.metrics, f.series
	if cfg.Store == nil {
		cfg.Store = f.store
	}
	dep, err := coordinator.Deploy(cfg, model, weights, plan)
	if err != nil {
		return nil, fmt.Errorf("core: deploying %q: %w", model.Name, err)
	}
	return &Service{framework: f, Plan: plan, deployment: dep}, nil
}

// Infer serves one input — one image, or a tensor.Stack of images as a
// single batched pass — with the default (eager, overlapped) schedule.
func (s *Service) Infer(input *tensor.Tensor) (*coordinator.Report, error) {
	return s.deployment.Run(input, coordinator.RunOptions{})
}

// Deployment returns the deployed partition functions, for jobs Infer
// does not shape: the sequential schedule, a deadline, a lean run.
func (s *Service) Deployment() *coordinator.Deployment { return s.deployment }

// Serve runs the open-loop serving scheduler (internal/serving) on this
// service's deployment. The config's Deployment is filled in, Metrics,
// Series and Fallback default to the framework's registry, series and
// the submission's fallback deployment; every serving policy (pipeline,
// batch, brownout, SLO, ...) is the config's own. On a submitted
// service a batching policy's MaxBatch is clamped into the optimizer
// co-plan's feasible range, so serving never stacks a batch the planned
// memory blocks cannot hold, and MaxBatch < 0 asks for the co-plan's
// recommended size. A service made by Deploy has no co-plan: MaxBatch
// is used as given, and a negative one is refused.
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
		if cfg.Batch.MaxBatch < 0 {
			cfg.Batch.MaxBatch = s.BatchPlan.Chosen
		} else if cfg.Batch.MaxBatch > 1 {
			cfg.Batch.MaxBatch = s.BatchPlan.Clamp(cfg.Batch.MaxBatch)
		}
	}
	if cfg.Fallback == nil {
		cfg.Fallback = s.fallback
	}
	return serving.Serve(cfg, inputs, arrivals)
}

// ColdStart resets every partition container, so the next job measures a
// cold end-to-end serving time — how a parallel batch is served, since
// its concurrent pipelines cannot share a warm container. The platform
// discards only idle containers, so the batch's jobs are replayed one at
// a time, each from a cold pool.
func (s *Service) ColdStart() {
	for _, name := range s.deployment.FunctionNames() {
		s.framework.platform.ResetWarm(name)
	}
}

// Close tears the deployment (and any fallback) down.
func (s *Service) Close() {
	s.deployment.Teardown()
	if s.fallback != nil {
		s.fallback.Teardown()
	}
}

// Partitions reports how many lambdas serve the model.
func (s *Service) Partitions() int { return s.deployment.Partitions() }

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
