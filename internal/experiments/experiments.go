// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 2 and Sec. 5) on the simulated platform. Each
// Table*/Figure* function builds a fresh environment, runs the workload,
// and returns a typed result with a Render method that prints the same
// rows/series the paper reports. cmd/experiments prints them all.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/cloud/sagemaker"
	"ampsinf/internal/cloud/stepfn"
	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/perf"
)

// Package-level metrics registry: when set, every subsequently built
// Env reports simulator and coordinator metrics into it, so a whole
// experiment run can be snapshotted as one sorted-key JSON document.
var (
	metricsMu sync.Mutex
	metricsRe *obs.Metrics
	seriesRe  *obs.TimeSeries
)

// SetMetrics installs (or, with nil, removes) the registry future Envs
// report into.
func SetMetrics(m *obs.Metrics) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	metricsRe = m
}

func currentMetrics() *obs.Metrics {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	return metricsRe
}

// SetSeries installs (or, with nil, removes) the windowed time series
// future Envs stream telemetry into. Each Env runs its own simulated
// clock, so a shared series across experiments overlays their windows;
// that is fine for the NDJSON stream export, which is about watching
// live counters, not attributing them to one run.
func SetSeries(ts *obs.TimeSeries) {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	seriesRe = ts
}

func currentSeries() *obs.TimeSeries {
	metricsMu.Lock()
	defer metricsMu.Unlock()
	return seriesRe
}

// Env is one experiment's isolated simulated cloud.
type Env struct {
	Meter    *billing.Meter
	Platform *lambda.Platform
	Store    *s3.Store
	Sage     *sagemaker.Platform
	StepFn   *stepfn.Engine
	FW       *core.Framework
}

// NewEnv builds a fresh environment with the calibrated defaults.
func NewEnv() *Env {
	mx := currentMetrics()
	meter := &billing.Meter{}
	platform := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	engine := stepfn.NewEngine(platform, meter)
	engine.Metrics = mx
	return &Env{
		Meter:    meter,
		Platform: platform,
		Store:    store,
		Sage:     sagemaker.New(meter),
		StepFn:   engine,
		FW: core.NewFramework(core.Options{
			Platform: platform, Store: store, Meter: meter, Metrics: mx,
			Series: currentSeries(),
		}),
	}
}

// InstallFaults threads one fault injector through the environment's
// lambda platform and S3 store (nil removes injection).
func (e *Env) InstallFaults(inj *faults.Injector) {
	e.Platform.SetInjector(inj)
	e.Store.SetInjector(inj)
	inj.SetClock(e.Platform.Now)
}

// SLOFactor is the standard response-time objective the harness submits
// with: 8% tighter than the cost-optimal plan's time, mirroring the
// paper's setting where AMPS-Inf provisions larger memory blocks than the
// cost-optimal Baseline 3 (≈9% more cost for ≈4% faster completion).
const SLOFactor = 0.92

// models and weights are heavyweight to build; cache them per process.
var (
	modelMu    sync.Mutex
	modelCache = map[string]*nn.Model{}
	wCache     = map[string]nn.Weights{}
)

// Model returns the cached full-resolution zoo model and its
// deterministic weights.
func Model(name string) (*nn.Model, nn.Weights) {
	modelMu.Lock()
	defer modelMu.Unlock()
	if m, ok := modelCache[name]; ok {
		return m, wCache[name]
	}
	m, err := zoo.Build(name, 0)
	if err != nil {
		panic(err)
	}
	w := nn.InitWeights(m, 2020)
	modelCache[name] = m
	wCache[name] = w
	return m, w
}

// submitAMPS deploys a model through the full AMPS-Inf pipeline with the
// standard SLO policy, in timing-only mode.
func submitAMPS(env *Env, name string) (*core.Service, error) {
	return submitAMPSWithFactor(env, name, SLOFactor)
}

// submitAMPSWithFactor submits with an SLO of factor × the cost-optimal
// plan's response time (factor < 1 buys speed with larger memory blocks).
func submitAMPSWithFactor(env *Env, name string, factor float64) (*core.Service, error) {
	m, w := Model(name)
	o, err := optimizerFor(name)
	if err != nil {
		return nil, err
	}
	base, err := o.OptimizeCostOnly()
	if err != nil {
		return nil, err
	}
	return env.FW.Submit(m, w, core.SubmitOptions{
		SLO:         time.Duration(float64(base.EstTime) * factor),
		NamePrefix:  "amps-" + name,
		SkipCompute: true,
	})
}

func sageJob(name string, images int) sagemaker.Job {
	m, _ := Model(name)
	return sagemaker.Job{
		ModelName:    name,
		WeightsBytes: m.WeightBytes(),
		FLOPs:        m.TotalFLOPs(),
		Images:       images,
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
func usd(c float64) string        { return fmt.Sprintf("%.5f", c) }
func usdTight(c float64) string   { return fmt.Sprintf("%.4f", c) }
func pct(x float64) string        { return fmt.Sprintf("%.1f%%", x*100) }
func mb(bytes int64) string       { return fmt.Sprintf("%.0f", float64(bytes)/(1<<20)) }
func ratio(a, b float64) float64  { return a / b }
func saving(ours, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - ours/base
}
