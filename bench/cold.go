package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/core"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// The deployed artefact — model description and weights — is fixed, as
// it is for `ampsinf infer` (nn.InitWeights(m, 1)); the seed draws the
// images. The golden image is the one the frozen reference outputs in
// testdata/golden_outputs.json were computed from.
const (
	weightSeed = 1
	goldenSeed = 1
	goldenFile = "testdata/golden_outputs.json"
)

// coldInputSize is the image side cold_infer serves. The layer graphs,
// conv mixes and every byte of weights are those of the canonical
// 224/299-pixel models; the compute is about half, which lets a
// 20-second pass take eight samples per model where the canonical sizes
// allow two or three — too few for a median on a shared two-core box.
const coldInputSize = 160

func buildColdModel(zooName string) (*nn.Model, error) {
	if zooName == "tinycnn" {
		return zoo.Build(zooName, 0)
	}
	return zoo.Build(zooName, coldInputSize)
}

// goldenOutputs holds, per zoo model, the output vector the seed
// engine produced for (weightSeed, goldenSeed). It is frozen: a later
// kernel change is checked against it and may not regenerate it.
type goldenOutputs struct {
	Note    string               `json:"note"`
	Outputs map[string][]float32 `json:"outputs"`
}

func loadGolden() (*goldenOutputs, error) {
	b, err := os.ReadFile(filepath.Join(benchDir(), goldenFile))
	if err != nil {
		return nil, err
	}
	var g goldenOutputs
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return &g, nil
}

// coldModel is one cold_infer subject. label is the metric name part;
// in quick mode every label is served by tinycnn.
type coldModel struct {
	label, zooName string
	m              *nn.Model
	w              nn.Weights
	golden         []float32
	buildS, initS  float64
}

func setupCold(quick bool) ([]*coldModel, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	var out []*coldModel
	for _, label := range coldModelNames {
		cm := &coldModel{label: label, zooName: label}
		if quick {
			cm.zooName = "tinycnn"
		}
		t0 := time.Now()
		if cm.m, err = buildColdModel(cm.zooName); err != nil {
			return nil, err
		}
		t1 := time.Now()
		cm.w = nn.InitWeights(cm.m, weightSeed)
		cm.buildS, cm.initS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
		if cm.golden = g.Outputs[cm.zooName]; cm.golden == nil {
			return nil, fmt.Errorf("%s has no reference output for %q", goldenFile, cm.zooName)
		}
		out = append(out, cm)
	}
	return out, nil
}

// coldTiming is one cold inference.
type coldTiming struct {
	unitS, submitS, inferS float64
	allocMB                float64
	simUSD, simRespS       float64
	out                    *tensor.Tensor
	// traced units only
	deployS, runS, teardownS float64
}

// coldSubmit is the `ampsinf infer -real` path through the public face:
// NewFramework → Submit (plan, co-plan, deploy) → Infer → Close.
func coldSubmit(cm *coldModel, img *tensor.Tensor) (coldTiming, error) {
	var t coldTiming
	a0 := totalAlloc()
	t0 := time.Now()
	fw := core.NewFramework(core.Options{})
	svc, err := fw.Submit(cm.m, cm.w, core.SubmitOptions{})
	if err != nil {
		return t, err
	}
	t1 := time.Now()
	rep, err := svc.Infer(img)
	t2 := time.Now()
	svc.Close()
	if err != nil {
		return t, err
	}
	t.unitS, t.submitS, t.inferS = time.Since(t0).Seconds(), t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	t.allocMB = mb(totalAlloc() - a0)
	t.simUSD, t.simRespS, t.out = fw.Meter().Total(), rep.Completion.Seconds(), rep.Output
	return t, nil
}

// coldTraced does the same work through the functions Submit is made
// of, each under a span.
func coldTraced(cm *coldModel, img *tensor.Tensor, rec *recorder) (coldTiming, error) {
	var t coldTiming
	uid := rec.begin("unit." + cm.label)
	defer rec.end(uid)
	t0 := time.Now()
	meter := &billing.Meter{}
	pf := perf.Default()
	pl := lambda.New(meter, pf)
	store := s3.New(s3.DefaultConfig(), meter)
	quota := pl.Quota()
	var (
		o    *optimizer.Optimizer
		plan *optimizer.Plan
		dep  *coordinator.Deployment
		rep  *coordinator.Report
		err  error
	)
	spanned(rec, "optimizer.New", func() { o, err = optimizer.New(optimizer.Request{Model: cm.m, Perf: pf, Quota: &quota}) })
	if err != nil {
		return t, err
	}
	spanned(rec, "optimizer.Optimize", func() { plan, err = o.Optimize() })
	if err != nil {
		return t, err
	}
	spanned(rec, "optimizer.CoPlanBatch", func() { _, err = o.CoPlanBatch(plan, 8) })
	if err != nil {
		return t, err
	}
	t.deployS = spanned(rec, "coordinator.Deploy", func() {
		dep, err = coordinator.Deploy(coordinator.Config{Platform: pl, Store: store, NamePrefix: "ampsinf"}, cm.m, cm.w, plan)
	})
	if err != nil {
		return t, err
	}
	t1 := time.Now()
	t.runS = spanned(rec, "coordinator.Run", func() { rep, err = dep.RunEager(img) })
	t.teardownS = spanned(rec, "coordinator.Teardown", dep.Teardown)
	if err != nil {
		return t, err
	}
	t.unitS, t.submitS, t.inferS = time.Since(t0).Seconds(), t1.Sub(t0).Seconds(), t.runS
	t.simUSD, t.simRespS, t.out = meter.Total(), rep.Completion.Seconds(), rep.Output
	return t, nil
}

// spanned runs f under a span and returns its wall-clock seconds.
func spanned(rec *recorder, name string, f func()) float64 {
	id := rec.begin(name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	rec.end(id)
	return d.Seconds()
}

// maxErr returns the largest absolute difference between got and the
// reference, and the reference's largest magnitude; NaN in got makes
// the difference NaN.
func maxErr[T float32 | float64](got []float32, want []T) (worst, scale float64) {
	for i, w := range want {
		scale = math.Max(scale, math.Abs(float64(w)))
		if d := math.Abs(float64(got[i]) - float64(w)); !(d <= worst) {
			worst = d
		}
	}
	return worst, scale
}

// closeTo reports whether got matches want to tol relative to want's
// largest magnitude.
func closeTo[T float32 | float64](got []float32, want []T, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	if worst, scale := maxErr(got, want); !(worst <= tol*scale) {
		return fmt.Errorf("max abs error %.3g over %.0e of scale %.3g", worst, tol, scale)
	}
	return nil
}

// checkProbabilities is the check for an image with no stored
// reference: the zoo models end in softmax, so the output is a finite
// probability vector of the model's class count.
func checkProbabilities(m *nn.Model, out *tensor.Tensor) error {
	if out == nil || out.Elems() != m.Output().OutShape.Elems() {
		return fmt.Errorf("output shape mismatch")
	}
	var s float64
	for _, v := range out.Data() {
		if v < 0 || math.IsNaN(float64(v)) {
			return fmt.Errorf("output holds %v", v)
		}
		s += float64(v)
	}
	if math.Abs(s-1) > 1e-4 {
		return fmt.Errorf("softmax output sums to %v", s)
	}
	return nil
}

// coldSamples is one model's untraced units.
type coldSamples struct {
	unit, submit, infer, alloc []float64
	usd, resp                  float64 // the same on every unit, or the digest check fails
}

// runColdInfer serves cold inferences round-robin over the models until
// the budget is spent. The warm-up unit of each model serves the golden
// image and is checked against the frozen reference output.
func runColdInfer(rc *runCtx) error {
	var models []*coldModel
	if err := rc.setup(3, func() (err error) { models, err = setupCold(rc.quick); return }); err != nil {
		return err
	}
	for _, cm := range models {
		rc.attempted++
		t, err := coldSubmit(cm, workload.Image(cm.m, goldenSeed))
		if err == nil {
			err = closeTo(t.out.Data(), cm.golden, 1e-4)
		}
		if err != nil {
			rc.fail("cold %s golden unit: %v", cm.label, err)
		}
	}

	plain := make([]coldSamples, len(models))
	traced := make([]coldTiming, len(models))
	var digest digestCheck
	// mobilenet is ~6x cheaper than the other two, so it takes three
	// turns per round: the three medians then rest on similar time.
	order := []int{0, 0, 0, 1, 2}
	if rc.quick {
		order = []int{0, 1, 2}
	}
	start := time.Now()
	for step := 0; rc.more(start, step, len(order)); step++ {
		i := order[step%len(order)]
		cm := models[i]
		img := workload.Image(cm.m, subSeed(rc.seed, fmt.Sprintf("image-%s-%d", cm.label, step)))
		rc.attempted++
		t, err := coldSubmit(cm, img)
		if err == nil {
			err = checkProbabilities(cm.m, t.out)
		}
		if err != nil {
			rc.fail("cold %s unit %d: %v", cm.label, step, err)
			continue
		}
		s := &plain[i]
		s.unit, s.submit, s.infer = append(s.unit, t.unitS), append(s.submit, t.submitS), append(s.infer, t.inferS)
		s.alloc, s.usd, s.resp = append(s.alloc, t.allocMB), t.simUSD, t.simRespS
		digest.add(rc, step, cm.label, fmt.Sprintf("%.17g %.17g", t.simUSD, t.simRespS))
	}
	if rc.trace {
		// One traced round: the constituent calls on the golden image,
		// so partitioned execution is also held to the reference.
		for j, cm := range models {
			rc.attempted++
			t, err := coldTraced(cm, workload.Image(cm.m, goldenSeed), rc.rec)
			if err == nil {
				err = closeTo(t.out.Data(), cm.golden, 1e-4)
			}
			if err != nil {
				return fmt.Errorf("cold %s traced unit: %w", cm.label, err)
			}
			traced[j] = t
		}
	}
	rc.timed = time.Since(start)
	rc.digest = digest.sum()
	for i, cm := range models {
		rc.units[cm.label] = len(plain[i].unit)
		if len(plain[i].unit) == 0 {
			return fmt.Errorf("cold_infer: no successful %s unit", cm.label)
		}
	}

	if !rc.trace {
		e := rc.e2e
		var units, allocs, usd, resp []float64
		var perModel [][]float64
		for i := range models {
			perModel = append(perModel, plain[i].unit)
			units, allocs = append(units, median(plain[i].unit)), append(allocs, median(plain[i].alloc))
			usd, resp = append(usd, plain[i].usd), append(resp, plain[i].resp)
			rc.printTiming("unit "+models[i].label, plain[i].unit)
		}
		e.setFrom("ops_per_s", 1/geomean(units), perModel...)
		e.set("alloc_mb_per_unit", sum(allocs))
		e.set("sim_usd_per_op", mean(usd))
		e.set("sim_resp_s", mean(resp))
		e.set("sim_goodput_rps", float64(len(resp))/sum(resp))
		return nil
	}
	return coldLayerMetrics(rc, models, plain, traced)
}

// coldLayerMetrics fills the cold-path layer metrics: the per-model
// split, the traced constituents (summed over the three models), the
// codecs and the unpartitioned forward pass.
func coldLayerMetrics(rc *runCtx, models []*coldModel, plain []coldSamples, traced []coldTiming) error {
	l := rc.layer
	var deploy, run, teardown, split, decode, forward, initW, build, plainUnits, tracedUnits float64
	var codecBytes int
	var codecS float64
	for i, cm := range models {
		l.setMedian("cold."+cm.label+"_unit_ms", plain[i].unit, 1e3)
		l.setMedian("cold."+cm.label+"_submit_ms", plain[i].submit, 1e3)
		l.setMedian("cold."+cm.label+"_infer_ms", plain[i].infer, 1e3)
		plainUnits += median(plain[i].unit)
		tracedUnits += traced[i].unitS
		deploy, run, teardown = deploy+traced[i].deployS, run+traced[i].runS, teardown+traced[i].teardownS
		initW, build = initW+cm.initS, build+cm.buildS

		// Codecs, on the plan the units deployed.
		plan, err := optimizer.Optimize(optimizer.Request{Model: cm.m, Perf: perf.Default()})
		if err != nil {
			return err
		}
		bounds := plan.Bounds()
		var blobs [][]byte
		split += spanned(rc.rec, "modelfmt.SplitWeights", func() { blobs, err = modelfmt.SplitWeights(cm.m, cm.w, bounds) })
		if err != nil {
			return err
		}
		for p := range blobs {
			part, err := cm.m.Partition(bounds[p], bounds[p+1])
			if err != nil {
				return err
			}
			decode += spanned(rc.rec, "modelfmt.DecodeWeights", func() { _, err = modelfmt.DecodeWeights(part, blobs[p]) })
			if err != nil {
				return err
			}
		}
		img := workload.Image(cm.m, goldenSeed)
		codecS += spanned(rc.rec, "modelfmt.TensorCodec", func() {
			var back *tensor.Tensor
			enc := modelfmt.EncodeTensor(img)
			back, err = modelfmt.DecodeTensor(enc)
			if err == nil && !back.Shape().Equal(img.Shape()) {
				err = fmt.Errorf("tensor codec changed shape %v to %v", img.Shape(), back.Shape())
			}
			codecBytes += 2 * len(enc)
		})
		if err != nil {
			return err
		}
		// Unpartitioned forward pass: the floor under coordinator.run_ms,
		// and the check that partitioning did not change the numbers.
		var out *tensor.Tensor
		forward += spanned(rc.rec, "nn.Forward", func() { out, err = cm.m.Forward(cm.w, img) })
		if err == nil {
			err = closeTo(traced[i].out.Data(), out.Data(), 1e-5)
		}
		if err != nil {
			rc.fail("cold %s: partitioned vs whole forward: %v", cm.label, err)
		}
	}
	l.set("coordinator.deploy_ms", 1e3*deploy)
	l.set("coordinator.run_ms", 1e3*run)
	l.set("coordinator.teardown_ms", 1e3*teardown)
	l.set("nn.forward_ms", 1e3*forward)
	l.set("coordinator.overhead_ms", 1e3*(run-forward))
	l.set("modelfmt.split_weights_ms", 1e3*split)
	l.set("modelfmt.decode_weights_ms", 1e3*decode)
	l.set("modelfmt.tensor_codec_mbps", float64(codecBytes)/1e6/codecS)
	l.set("nn.init_weights_ms", 1e3*initW)
	l.set("zoo.build_ms", 1e3*build)
	l.set("trace.overhead_pct", overheadPct(plainUnits, tracedUnits))
	return kernelMetrics(rc)
}

// writeGolden regenerates testdata/golden_outputs.json from the engine
// in this checkout. It exists to document how the file was made; the
// file is frozen and a kernel change must not rerun this.
func writeGolden() error {
	g := goldenOutputs{
		Note:    "unpartitioned nn.Model.Forward of InitWeights(m, 1) on workload.Image(m, 1), by the engine at the commit that added bench/; frozen",
		Outputs: map[string][]float32{},
	}
	for _, name := range append([]string{"tinycnn"}, coldModelNames...) {
		m, err := buildColdModel(name)
		if err != nil {
			return err
		}
		out, err := m.Forward(nn.InitWeights(m, weightSeed), workload.Image(m, goldenSeed))
		if err != nil {
			return err
		}
		g.Outputs[name] = out.Data()
	}
	b, err := json.Marshal(g)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(benchDir(), goldenFile), append(b, '\n'), 0o644)
}
