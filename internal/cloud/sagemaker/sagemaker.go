// Package sagemaker simulates the two Amazon SageMaker deployments the
// paper compares against (Sec. 2.2, 5.2):
//
//   - Sage 1 — an ml.t2.medium notebook instance that repackages the
//     uploaded model (model.pb/assets/variables), loads it locally, and
//     serves predictions in-process.
//   - Sage 2 — an ml.t2.medium notebook that submits the job and invokes
//     an ml.m4.xlarge hosting instance behind an HTTP endpoint; the model
//     is staged through S3 and loaded by the hosting instance.
//
// Latency and cost constants are calibrated against the paper's own
// measurements: Table 3 (ResNet50: Sage 1 33.3 s / $0.014, Sage 2
// 484.5 s / $0.056), Table 4 (Sage 2 deployment+prediction ≈ 460 s) and
// Fig 2. Costs are dominated by instance-hours, which is why serverless
// wins by ≥92% in the paper's Fig 8.
package sagemaker

import (
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/pricing"
)

// InstanceType models a SageMaker instance's price and speed.
type InstanceType struct {
	Name      string
	HourlyUSD float64
	// GFLOPS is the effective inference rate of the ML framework on this
	// instance.
	GFLOPS float64
	// LoadSecPerMB is local model/weights deserialization work.
	LoadSecPerMB float64
}

// The two instance types the paper uses.
var (
	// ml.t2.medium is a burstable instance whose sustained inference rate
	// sits below a full-share lambda's (the paper's Fig 6 shows AMPS-Inf
	// predicting faster than Sage 1).
	T2Medium = InstanceType{
		Name: "ml.t2.medium", HourlyUSD: pricing.SageNotebookT2MediumHourly,
		GFLOPS: 0.45, LoadSecPerMB: 0.12,
	}
	M4XLarge = InstanceType{
		Name: "ml.m4.xlarge", HourlyUSD: pricing.SageHostingM4XLargeHourly,
		GFLOPS: 1.6, LoadSecPerMB: 0.08,
	}
)

// Platform-level latencies, calibrated against Tables 3 and 4.
const (
	// notebookSessionOverhead is notebook time billed around the job
	// itself (instance start, environment setup, user interaction).
	notebookSessionOverhead = 1080 * time.Second
	// rearrangeBase and rearrangeSecPerMB model converting the uploaded
	// JSON+H5 model into the served format (model.pb, assets, variables).
	rearrangeBase     = 10 * time.Second
	rearrangeSecPerMB = 0.015
	// endpointCreateTime is Sage 2's endpoint creation + hosting launch.
	endpointCreateTime = 390 * time.Second
	// s3StageSecPerMB is Sage 2's model staging through S3 (write by the
	// notebook + read by the hosting instance).
	s3StageSecPerMB = 0.30
	// hostingBilledPad is extra hosting-instance time billed beyond the
	// serving itself (warm-down before the endpoint is deleted).
	hostingBilledPad = 120 * time.Second
	// submitOverhead is Sage 2's notebook-side submission time.
	submitOverhead = 30 * time.Second
)

// Platform executes SageMaker jobs and charges the meter.
type Platform struct {
	meter *billing.Meter
}

// New creates a platform charging into meter.
func New(meter *billing.Meter) *Platform {
	return &Platform{meter: meter}
}

// Job describes one inference job.
type Job struct {
	ModelName    string
	WeightsBytes int64
	// FLOPs is the compute for one example.
	FLOPs int64
	// Images is the number of images served (≥1).
	Images int
}

// Report describes one job's simulated execution.
type Report struct {
	Setting string
	// Phase durations.
	Rearrange time.Duration // Sage 1: repackaging on the notebook
	Deploy    time.Duration // Sage 2: endpoint creation + model staging
	Load      time.Duration // model+weights load on the serving instance
	Predict   time.Duration // forward passes
	// Completion is the user-visible response time the paper plots.
	Completion time.Duration
	// Cost is the total charge (instances + storage + data processing).
	Cost float64
}

func (j Job) weightsMB() float64 { return float64(j.WeightsBytes) / (1 << 20) }

func (j Job) images() int {
	if j.Images < 1 {
		return 1
	}
	return j.Images
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// batchFLOPs mirrors perf.Params.BatchFLOPs: vectorized frameworks serve
// each additional batched image at a fraction of the first image's cost.
func batchFLOPs(flops int64, n int) int64 {
	if n <= 1 {
		return flops
	}
	return int64(float64(flops) * (1 + float64(n-1)*0.25))
}

// ServeNotebook runs the Sage 1 setting: repackage, load and predict on
// the notebook instance. The notebook is billed for the session overhead
// plus the job itself; weights storage is billed at ML-storage rates.
func (p *Platform) ServeNotebook(j Job) *Report {
	inst := T2Medium
	r := &Report{Setting: "sage1"}
	r.Rearrange = rearrangeBase + seconds(j.weightsMB()*rearrangeSecPerMB)
	r.Load = seconds(j.weightsMB() * inst.LoadSecPerMB)
	r.Predict = seconds(float64(batchFLOPs(j.FLOPs, j.images())) / (inst.GFLOPS * 1e9))
	r.Completion = r.Rearrange + r.Load + r.Predict

	session := notebookSessionOverhead + r.Completion
	instCost := pricing.InstanceHourlyCost(inst.HourlyUSD, session)
	p.meter.Add("sagemaker:notebook", instCost)
	storage := float64(j.WeightsBytes) / (1 << 30) * pricing.SageStorageGBMonth / (30 * 24) * session.Hours()
	p.meter.Add("sagemaker:storage", storage)
	r.Cost = instCost + storage
	return r
}

// ServeHosted runs the Sage 2 setting: the notebook submits the job, the
// model is staged through S3, an endpoint is created on an ml.m4.xlarge
// hosting instance, which loads the model and serves predictions. Both
// instances are billed.
func (p *Platform) ServeHosted(j Job) *Report {
	nb, host := T2Medium, M4XLarge
	r := &Report{Setting: "sage2"}
	// Loading in Sage 2 includes fetching the staged model from S3 — the
	// reason the paper's Fig 5 shows it slowest.
	r.Deploy = endpointCreateTime
	r.Load = seconds(j.weightsMB() * (s3StageSecPerMB + host.LoadSecPerMB))
	r.Predict = seconds(float64(batchFLOPs(j.FLOPs, j.images())) / (host.GFLOPS * 1e9))
	r.Completion = submitOverhead + r.Deploy + r.Load + r.Predict

	// The notebook only submits the job; it does not stay busy while the
	// hosting instance deploys and serves.
	nbSession := notebookSessionOverhead + submitOverhead
	nbCost := pricing.InstanceHourlyCost(nb.HourlyUSD, nbSession)
	p.meter.Add("sagemaker:notebook", nbCost)

	hostTime := r.Deploy + r.Load + r.Predict + hostingBilledPad
	hostCost := pricing.InstanceHourlyCost(host.HourlyUSD, hostTime)
	p.meter.Add("sagemaker:hosting", hostCost)

	gb := float64(j.WeightsBytes) / (1 << 30)
	data := gb * pricing.SageDataProcessingGB
	p.meter.Add("sagemaker:data", data)

	r.Cost = nbCost + hostCost + data
	return r
}
