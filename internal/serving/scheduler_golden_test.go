package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// schedulerGolden is one run's observable output, hashed: the rendered
// report, the span forest (retained runs), the metrics snapshot, the
// window stream and the shared meter's total.
type schedulerGolden struct {
	Render  string `json:"render_sha256"`
	Traces  string `json:"traces_sha256"`
	Metrics string `json:"metrics_sha256"`
	Series  string `json:"series_sha256"`
	Meter   string `json:"meter_total"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenScenario is one overload regime legacy_test.go predates, with
// the condition that proves the run actually entered it.
type goldenScenario struct {
	name   string
	faults faults.Config
	mutate func(*coordinator.Config)
	cfg    Config
	n      int
	rate   float64
	// lanes is the account concurrency limit in whole jobs.
	lanes   int
	reached func(*Report) bool
	// noInjector removes the fault injector from the platform and the
	// store after deployment.
	noInjector bool
}

// outcomes is a run's per-request outcome counts.
type outcomes struct {
	Completed, Good, Shed, Deadline, Throttled, Failed int
	BudgetExhausted, BrownoutShed, FallbackServed      int
}

func goldenScenarios() []goldenScenario {
	tolerate := SLOPolicy{TolerateFailures: true}
	throttle := ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3}
	return []goldenScenario{
		{
			name:   "brownout-shed",
			faults: faults.Uniform(0.6, 131),
			cfg: Config{Throttle: throttle, SLO: tolerate, Brownout: BrownoutPolicy{
				Enabled: true, MinJobs: 1, BadFraction: 0.05, StepUpAfter: 1, StepDownAfter: 3,
			}},
			n: 96, rate: 1.5, lanes: 12,
			reached: func(r *Report) bool {
				return r.BrownoutDeepest == BrownoutShed && r.BrownoutShed > 0 && r.FallbackServed > 0
			},
		},
		{
			name:   "fallback-swap",
			faults: faults.Uniform(0.5, 97),
			cfg: Config{Throttle: throttle, SLO: tolerate, Brownout: BrownoutPolicy{
				Enabled: true, MinJobs: 1, BadFraction: 0.05,
				StepUpAfter: 1, StepDownAfter: 100, MaxLevel: BrownoutFallback,
			}},
			n: 48, rate: 8, lanes: 4,
			reached: func(r *Report) bool {
				return r.BrownoutDeepest == BrownoutFallback && r.FallbackServed > 0
			},
		},
		{
			name:   "budget-storm",
			faults: faults.Uniform(0.5, 431),
			mutate: func(c *coordinator.Config) {
				c.Budget = coordinator.BudgetPolicy{MaxTokens: 1, EarnPerSuccess: 0.01}
			},
			cfg: Config{Throttle: throttle, SLO: tolerate},
			n:   48, rate: 6, lanes: 4,
			reached: func(r *Report) bool { return r.BudgetExhausted > 0 && r.BudgetDenied > 0 },
		},
		{
			// Deadline fail-fast, SLO shedding and exhausted admissions in
			// one run, on an account limit two jobs wide.
			name:   "slo-storm",
			faults: faults.Uniform(0.35, 59),
			cfg: Config{
				Throttle: ThrottlePolicy{MaxAttempts: 5, BaseBackoff: time.Second, JitterSeed: 5},
				SLO:      SLOPolicy{Deadline: 26 * time.Second, Shed: true, TolerateFailures: true},
			},
			n: 64, rate: 1, lanes: 2,
			reached: func(r *Report) bool { return r.Deadline > 0 && r.Shed > 0 && r.Throttles > 0 && r.Completed > 0 },
		},
	}
}

// goldenRun serves one scenario on a fresh deployment pair and hashes
// everything observable.
func goldenRun(t *testing.T, sc goldenScenario, staged, stream bool) (schedulerGolden, outcomes) {
	t.Helper()
	e, fb := deployOverloadPair(t, sc.faults, sc.mutate)
	if sc.noInjector {
		e.pl.SetInjector(nil)
		e.store.SetInjector(nil)
	}
	e.pl.SetAccountConcurrency(sc.lanes * e.dep.Partitions())
	mx := obs.NewMetrics()
	series := obs.NewTimeSeries(250 * time.Millisecond)
	cfg := sc.cfg
	cfg.Deployment = e.dep
	cfg.Fallback = fb
	cfg.Metrics = mx
	cfg.Series = series
	if staged {
		cfg.Pipeline = PipelinePolicy{Depth: 3}
		cfg.Batch = BatchPolicy{MaxBatch: 2, Window: 250 * time.Millisecond, JitterSeed: 7}
	}
	arrivals := workload.PoissonArrivals(sc.n, sc.rate, 29)
	in := inputs(e.model, sc.n)
	var rep *Report
	var err error
	if stream {
		rep, err = ServeStream(cfg, sim.NewSlice(arrivals), func(i int) *tensor.Tensor { return in[i] })
	} else {
		// Retained runs also pin head sampling's keep/drop bookkeeping.
		cfg.Sample = SamplePolicy{Rate: 0.5, Seed: 11}
		rep, err = Serve(cfg, in, arrivals)
	}
	if err != nil {
		t.Fatal(err)
	}
	series.Close()
	if !sc.reached(rep) {
		t.Fatalf("run never entered the regime it pins:\n%s", rep.Summary())
	}
	// A deadline fail-fast runs zero attempts; it must count as zero
	// retries, not minus one.
	if rep.Retries < 0 {
		t.Fatalf("report counts %d retries", rep.Retries)
	}
	for i := range rep.Jobs {
		if r := rep.Jobs[i].Retries; r < 0 {
			t.Fatalf("request %d counts %d retries", i, r)
		}
	}
	traces, err := json.Marshal(rep.Traces())
	if err != nil {
		t.Fatal(err)
	}
	var mb, sb bytes.Buffer
	if err := mx.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := series.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return schedulerGolden{
			Render:  sha([]byte(rep.Render())),
			Traces:  sha(traces),
			Metrics: sha(mb.Bytes()),
			Series:  sha(sb.Bytes()),
			Meter:   strconv.FormatFloat(e.meter.Total(), 'g', -1, 64),
		}, outcomes{
			Completed: rep.Completed, Good: rep.Good, Shed: rep.Shed, Deadline: rep.Deadline,
			Throttled: rep.Throttled, Failed: rep.Failed, BudgetExhausted: rep.BudgetExhausted,
			BrownoutShed: rep.BrownoutShed, FallbackServed: rep.FallbackServed,
		}
}

// TestSchedulerGolden pins the scheduler's output under the policies
// the legacy battery predates — brownout, fallback routing, the retry
// budget, deadline fail-fast with shedding — for both executors and
// both entry points. Serve and ServeStream differ only in what they
// retain, so each scenario's two runs on one executor must bill the
// same meter total and count the same outcomes. Regenerate deliberately
// with `go test ./internal/serving -run TestSchedulerGolden -update-golden`.
func TestSchedulerGolden(t *testing.T) {
	path := filepath.Join("testdata", "scheduler_golden.json")
	got := map[string]schedulerGolden{}
	for _, sc := range goldenScenarios() {
		for _, ex := range []struct {
			name   string
			staged bool
		}{{"whole-job", false}, {"pipelined+batched", true}} {
			var outs [2]outcomes
			for i, entry := range []struct {
				name   string
				stream bool
			}{{"Serve", false}, {"ServeStream", true}} {
				name := sc.name + "/" + ex.name + "/" + entry.name
				t.Run(name, func(t *testing.T) {
					got[name], outs[i] = goldenRun(t, sc, ex.staged, entry.stream)
				})
			}
			serve, stream := sc.name+"/"+ex.name+"/Serve", sc.name+"/"+ex.name+"/ServeStream"
			if got[serve].Meter != got[stream].Meter || outs[0] != outs[1] {
				t.Errorf("%s/%s: Serve billed $%s with %+v, ServeStream $%s with %+v",
					sc.name, ex.name, got[serve].Meter, outs[0], got[stream].Meter, outs[1])
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	var want map[string]schedulerGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, test produced %d", len(want), len(got))
	}
	for name, g := range got {
		if w := want[name]; g != w {
			t.Errorf("%s drifted from %s:\n got %+v\nwant %+v", name, path, g, w)
		}
	}
}

// A zero-rate injector is no injector: one golden recipe served with
// faults.Uniform(0, seed) installed and with no injector at all must
// agree byte for byte — render, spans, metrics, window stream and
// meter total — through both executors and both entry points.
func TestZeroRateInjectorIsNoInjector(t *testing.T) {
	sc := goldenScenarios()[3] // slo-storm on a two-job account limit
	sc.faults = faults.Uniform(0, 59)
	sc.reached = func(r *Report) bool { return r.Completed > 0 && r.Throttles+r.Shed > 0 }
	bare := sc
	bare.noInjector = true
	for _, staged := range []bool{false, true} {
		for _, stream := range []bool{false, true} {
			zero, _ := goldenRun(t, sc, staged, stream)
			none, _ := goldenRun(t, bare, staged, stream)
			if zero != none {
				t.Errorf("staged=%v stream=%v: zero-rate injector %+v, no injector %+v", staged, stream, zero, none)
			}
		}
	}
}
