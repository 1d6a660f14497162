package experiments

import (
	"bufio"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ampsinf/internal/baselines"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/stepfn"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/serving"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// catalogueRow is one metric family of DESIGN.md's metric catalogue:
// its kind (counter, total, gauge or histogram) and the sink it is
// written to (registry, series or both).
type catalogueRow struct{ kind, sink string }

// catalogueRowRE matches a catalogue table row.
var catalogueRowRE = regexp.MustCompile("^\\| `([a-z0-9_]+)` \\| (counter|total|gauge|histogram) \\| (registry|series|both) \\|$")

// readCatalogue parses the metric catalogue table of DESIGN.md §13.
func readCatalogue(t *testing.T) map[string]catalogueRow {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]catalogueRow{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := catalogueRowRE.FindStringSubmatch(sc.Text()); m != nil {
			if _, dup := rows[m[1]]; dup {
				t.Fatalf("catalogue lists %s twice", m[1])
			}
			rows[m[1]] = catalogueRow{m[2], m[3]}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no metric catalogue rows in DESIGN.md")
	}
	return rows
}

// emitted collects the metric families a registry and a series hold,
// with their kinds and sinks.
type emitted map[string]catalogueRow

func (e emitted) add(t *testing.T, name, kind, sink string) {
	fam, _, _ := strings.Cut(name, "{")
	r, ok := e[fam]
	switch {
	case !ok:
		e[fam] = catalogueRow{kind, sink}
	case r.kind != kind:
		t.Errorf("%s written as a %s and as a %s", fam, r.kind, kind)
	case r.sink != sink:
		e[fam] = catalogueRow{kind, "both"}
	}
}

func (e emitted) collect(t *testing.T, mx *obs.Metrics, ts *obs.TimeSeries) {
	s := mx.Snapshot()
	for n := range s.Counters {
		e.add(t, n, "counter", "registry")
	}
	for n := range s.Totals {
		e.add(t, n, "total", "registry")
	}
	for n := range s.Gauges {
		e.add(t, n, "gauge", "registry")
	}
	for n := range s.Histograms {
		e.add(t, n, "histogram", "registry")
	}
	for _, f := range ts.Frames() {
		for n := range f.Counters {
			e.add(t, n, "counter", "series")
		}
		for n := range f.Totals {
			e.add(t, n, "total", "series")
		}
		for n := range f.Gauges {
			e.add(t, n, "gauge", "series")
		}
		for n := range f.Hists {
			e.add(t, n, "histogram", "series")
		}
	}
}

// catalogueStorm serves a Poisson storm through a fresh framework with
// every policy on — faults with domain outages, retries, hedges,
// breaker, retry budget, span sampling, SLO shedding, a brownout ladder
// that reaches hard shed and the quantized fallback — on the whole-job
// executor, or staged with pipelining and batching, and returns the
// families it emitted.
func catalogueStorm(t *testing.T, staged bool) emitted {
	const n, rate = 2000, 6
	m := zoo.LinearNet(8)
	fcfg := faults.Uniform(0.05, ResilienceSeed)
	fcfg.Domains = 3
	fcfg.DomainOutageEvery = 30 * time.Second
	fcfg.DomainOutageLength = 10 * time.Second
	mx, ts := obs.NewMetrics(), obs.NewTimeSeries(time.Second)
	fw := core.NewFramework(core.Options{Faults: faults.New(fcfg), Metrics: mx, Series: ts, Trace: obs.NewTracer()})
	retry := coordinator.DefaultRetryPolicy()
	retry.JitterSeed = ResilienceSeed
	svc, err := fw.Submit(m, nn.InitWeights(m, 42), core.SubmitOptions{
		SkipCompute: true, MaxLayersPerPartition: 4, FallbackBits: 4, Retry: retry,
		Hedge:   coordinator.HedgePolicy{Percentile: 90, MinSamples: 8, MaxRate: 0.5, JitterSeed: ResilienceSeed},
		Breaker: coordinator.BreakerPolicy{ConsecutiveFailures: 2, OpenFor: 2 * time.Second},
		Budget:  coordinator.BudgetPolicy{MaxTokens: 20, EarnPerSuccess: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	fw.Platform().SetAccountConcurrency(12)
	in := workload.Images(m, 1, 7)[0]
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = in
	}
	scfg := serving.Config{
		Throttle: serving.ThrottlePolicy{MaxAttempts: 3, JitterSeed: 3},
		SLO:      serving.SLOPolicy{Deadline: time.Minute, Shed: true, TolerateFailures: true},
		Brownout: serving.BrownoutPolicy{Enabled: true, BadFraction: 0.3, StepUpAfter: 2, StepDownAfter: 3},
		Sample:   serving.SamplePolicy{Rate: 0.5, Seed: 9},
	}
	if staged {
		scfg.Pipeline = serving.PipelinePolicy{Depth: 3}
		scfg.Batch = serving.BatchPolicy{MaxBatch: 4, Window: 100 * time.Millisecond, JitterSeed: 5}
	}
	rep, err := svc.Serve(inputs, workload.PoissonArrivals(n, rate, 7), scfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BrownoutDeepest != serving.BrownoutShed {
		t.Errorf("brownout reached %s, not hard shed", serving.BrownoutLevelName(rep.BrownoutDeepest))
	}
	ts.Close()
	got := emitted{}
	got.collect(t, mx, ts)
	return got
}

// TestMetricCatalogue holds DESIGN.md's metric catalogue to what the
// code writes: a metric family is documented iff it is emitted, with
// the kind and the sink it is emitted with. What is served to emit them
// is the storm with every policy on, once through each executor — they
// reach different families: only the staged one batches and pipelines,
// and only the whole-job one, in this storm, is throttled at admission
// and runs the retry budget dry — and one Serfer inference for the Step
// Functions transitions.
func TestMetricCatalogue(t *testing.T) {
	want := readCatalogue(t)
	got := emitted{}
	for _, staged := range []bool{false, true} {
		for f, r := range catalogueStorm(t, staged) {
			got.add(t, f, r.kind, r.sink)
		}
	}

	// Step Functions run only the Serfer baseline.
	m := zoo.LinearNet(8)
	mx, ts := obs.NewMetrics(), obs.NewTimeSeries(time.Second)
	fw := core.NewFramework(core.Options{Metrics: mx, Series: ts})
	serfer, err := fw.Submit(m, nn.InitWeights(m, 42), core.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer serfer.Close()
	eng := stepfn.NewEngine(fw.Platform(), fw.Meter())
	eng.Metrics = mx
	if _, err := baselines.RunSerfer(eng, serfer.Deployment(), fw.Store(), workload.Images(m, 1, 7)[0]); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	got.collect(t, mx, ts)

	var fams []string
	for f := range got {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		if r, ok := want[f]; !ok {
			t.Errorf("%s (%s, %s) is emitted but not in the catalogue", f, got[f].kind, got[f].sink)
		} else if r != got[f] {
			t.Errorf("%s: catalogue says %s, %s; emitted as %s, %s", f, r.kind, r.sink, got[f].kind, got[f].sink)
		}
	}
	for f, r := range want {
		if _, ok := got[f]; !ok {
			t.Errorf("%s (%s, %s) is in the catalogue but nothing emitted it", f, r.kind, r.sink)
		}
	}
}
