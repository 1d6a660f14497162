package serving

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// recipeBrownout is the ladder at its most sensitive: one bad outcome
// in one settled request steps a rung down, two healthy windows step
// one back up.
var recipeBrownout = BrownoutPolicy{Enabled: true, MinJobs: 1, BadFraction: 0.05, StepUpAfter: 1, StepDownAfter: 2}

// serveBreakerRecipe serves 400 Poisson arrivals at 10/s (seed 53)
// through deployOverloadPair under fcfg's faults, both deployments
// guarded by a three-failure breaker that opens for 2 s, with
// recipeBrownout judging 200 ms windows of one series the deployments
// and the serve share.
func serveBreakerRecipe(t *testing.T, fcfg faults.Config) (*Report, *obs.TimeSeries) {
	t.Helper()
	series := obs.NewTimeSeries(200 * time.Millisecond)
	e, fb := deployOverloadPair(t, fcfg, func(cfg *coordinator.Config) {
		cfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 3, OpenFor: 2 * time.Second}
		cfg.Series = series
	})
	e.pl.SetAccountConcurrency(4 * e.dep.Partitions())
	const n = 400
	rep, err := Serve(Config{
		Deployment: e.dep,
		Fallback:   fb,
		Throttle:   ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
		SLO:        SLOPolicy{TolerateFailures: true},
		Series:     series,
		Brownout:   recipeBrownout,
	}, inputs(e.model, n), workload.PoissonArrivals(n, 10, 53))
	if err != nil {
		t.Fatal(err)
	}
	series.Close()
	return rep, series
}

// lastAdmitted returns the arrival of the last request the run did not
// shed, and how many requests arrived after it. The recipe sets no SLO
// shedding, so every shed outcome is the ladder's hard shed.
func lastAdmitted(rep *Report) (last time.Duration, after int) {
	for i := range rep.Jobs {
		if jr := &rep.Jobs[i]; jr.Outcome != OutcomeShed {
			last, after = jr.Arrival, 0
		} else {
			after++
		}
	}
	return last, after
}

// An open breaker must not hold the ladder at hard shed. Under 60 %
// faults a breaker trips again and again; at hard shed nothing is
// invoked, so a breaker never leaves open, and a ladder that took an
// open breaker as an unhealthy window shed every request after 17.40 s
// (211 of them). The ladder judges outcomes instead — a short-circuited
// attempt ends as a failure — and keeps probing back up: without a
// breaker the same run admits until 37.56 s.
func TestBrownoutRecoversWithBreaker(t *testing.T) {
	rep, _ := serveBreakerRecipe(t, faults.Uniform(0.6, 131))
	last, after := lastAdmitted(rep)
	t.Logf("last admission arrived at %v, %d requests after it; %d ladder moves, deepest %s, %d hard-shed",
		last, after, rep.BrownoutTransitions, BrownoutLevelName(rep.BrownoutDeepest), rep.BrownoutShed)
	if rep.ShortCircuits == 0 {
		t.Fatalf("the breaker never short-circuited: %+v", rep)
	}
	if last < 35*time.Second || after > 10 {
		t.Fatalf("ladder latched at hard shed: last admission arrived at %v with %d requests after it", last, after)
	}
}

// brownoutStormGolden renders what the brownout chaos storm reports.
func brownoutStormGolden(rep *Report) string {
	return fmt.Sprintf("%stransitions %d deepest %d cost %v\n",
		rep.Summary(), rep.BrownoutTransitions, rep.BrownoutDeepest, rep.TotalCost)
}

// serveBrownoutStorm streams the chaos storm with the ladder on, the run
// BenchmarkServeStreamChaosBrownout times, and returns its report and
// series.
func serveBrownoutStorm(t *testing.T) (*Report, *obs.TimeSeries) {
	t.Helper()
	cfg, m := chaosStorm(t)
	cfg.Brownout = BrownoutPolicy{Enabled: true, P99: 30 * time.Second}
	in := randomInput(m, 1)
	rep, err := ServeStream(cfg, sim.NewPoisson(chaosStormRequests, 1, 7), func(int) *tensor.Tensor { return in })
	if err != nil {
		t.Fatal(err)
	}
	return rep, cfg.Series
}

// TestBrownoutStormGolden pins the brownout chaos storm to its summary,
// ladder moves, deepest rung and cost. Regenerate deliberately with
// `go test ./internal/serving -run TestBrownoutStormGolden -update-golden`.
func TestBrownoutStormGolden(t *testing.T) {
	rep, _ := serveBrownoutStorm(t)
	got := brownoutStormGolden(rep)
	path := filepath.Join("testdata", "brownout_storm_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("brownout storm drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// The ladder climbs back once faults stop. One 5 s storm of 60 % faults
// (12.21–17.21 s; the next starts after the last arrival) trips the
// breakers and walks the ladder down to hard shed; a ladder that
// latched an open breaker shed every request after 18.47 s (195 of
// them). Judging is a pure function of the flushed windows, so a fresh
// controller replayed over the run's series retraces its ladder move
// for move; after the last unhealthy window, at level ℓ, it must be
// healthy again within ℓ × StepDownAfter windows, before the run ends,
// and requests that arrive after the storm must be served again.
func TestBrownoutRecoversAfterBurst(t *testing.T) {
	fc := faults.Uniform(0.001, 15)
	fc.BurstEvery, fc.BurstLength, fc.BurstFactor = 20*time.Second, 5*time.Second, 600
	rep, series := serveBreakerRecipe(t, fc)
	const calm = 20 * time.Second
	last, _ := lastAdmitted(rep)
	in := faults.New(fc)
	for at := calm; at <= last; at += 10 * time.Millisecond {
		if in.InStorm(at) {
			t.Fatalf("a second storm is live at %v; the recipe wants faults that stop", at)
		}
	}
	served := 0
	for i := range rep.Jobs {
		if jr := &rep.Jobs[i]; jr.Arrival >= calm && jr.Outcome == OutcomeOK {
			served++
		}
	}

	ctl := newBrownoutCtl(recipeBrownout, nil)
	h := newServeHandles(nil, series)
	levels := make([]int, series.FlushedWindows())
	lastBad := -1
	for i := range levels {
		bad := ctl.unhealthyWindow(&h, i)
		ctl.step(bad)
		if bad {
			lastBad = i
		}
		levels[i] = ctl.level
	}
	if ctl.transitions != rep.BrownoutTransitions || ctl.deepest != rep.BrownoutDeepest {
		t.Fatalf("replay moved %d times to %s; the run moved %d times to %s",
			ctl.transitions, BrownoutLevelName(ctl.deepest), rep.BrownoutTransitions, BrownoutLevelName(rep.BrownoutDeepest))
	}
	if lastBad < 0 || rep.ShortCircuits == 0 {
		t.Fatalf("the storm never browned the run out: %+v", rep)
	}
	end := series.Frames()[lastBad].End
	within := levels[lastBad] * recipeBrownout.StepDownAfter
	t.Logf("%d requests arriving after %v served; last unhealthy window ends at %.1f s at level %s, %d windows follow",
		served, calm, end, BrownoutLevelName(levels[lastBad]), len(levels)-1-lastBad)
	if lastBad+within >= len(levels) || levels[lastBad+within] != BrownoutHealthy {
		t.Fatalf("ladder not healthy %d windows after its last unhealthy one (ends %.1f s, level %s); %d windows follow",
			within, end, BrownoutLevelName(levels[lastBad]), len(levels)-1-lastBad)
	}
	if served < 40 {
		t.Fatalf("only %d requests arriving after the storm were served", served)
	}
}

// The controller's typed reads see what Frames shows: over every
// flushed window of the brownout chaos storm, each serving counter
// reads its frame entry (0 when absent) and each serving histogram its
// frame's count and p99, bit for bit.
func TestWindowReadsMatchFrames(t *testing.T) {
	_, series := serveBrownoutStorm(t)
	h := newServeHandles(nil, series)
	counters := map[string]obs.EventCounter{
		"serving_jobs_total": h.jobs, "serving_shed_total": h.shed,
		"serving_deadline_failures_total": h.deadline, "serving_failures_total": h.failures,
		"serving_admission_failures_total": h.admFail, "serving_budget_exhausted_total": h.budgetExhausted,
		"serving_throttles_total": h.throttles, "serving_brownout_shed_total": h.brownoutShed,
	}
	hists := map[string]obs.SeriesHistHandle{
		"serving_latency_seconds": h.tsLatencySec, "serving_queue_seconds": h.tsQueueSec,
	}
	frames := series.Frames()
	if n := series.FlushedWindows(); n != len(frames) || n == 0 {
		t.Fatalf("%d flushed windows, %d frames", n, len(frames))
	}
	for i, f := range frames {
		for name, c := range counters {
			if got, want := c.InWindow(i), f.Counters[name]; got != want {
				t.Fatalf("window %d: %s reads %d, frame %d", i, name, got, want)
			}
		}
		for name, hh := range hists {
			var wantN int64
			var wantP99 float64
			if hf := f.Hists[name]; hf != nil {
				wantN, wantP99 = hf.Count, hf.P99
			}
			if n, p99 := hh.InWindow(i); n != wantN || math.Float64bits(p99) != math.Float64bits(wantP99) {
				t.Fatalf("window %d: %s reads count %d p99 %v, frame %d %v", i, name, n, p99, wantN, wantP99)
			}
		}
	}
}
