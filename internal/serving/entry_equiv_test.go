package serving

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// entryStack is one randomly drawn serving configuration: the serve
// policies, the coordinator's resilience policies, the fault rate and
// the account limit, all from one seed.
type entryStack struct {
	cfg                    Config
	faultRate              float64
	hedge, breaker, budget bool
	lanes, n               int
	rate                   float64 // arrivals per second
	seed                   int64
}

func (st entryStack) String() string {
	c := st.cfg
	return fmt.Sprintf("mode=%s depth=%d batch=%d/%v slo=%v/%v faults=%.2f hedge=%v breaker=%v budget=%v lanes=%d brownout=%v sample=%v",
		c.mode(), c.Pipeline.Depth, c.Batch.MaxBatch, c.Batch.Window, c.SLO.Deadline, c.SLO.Shed,
		st.faultRate, st.hedge, st.breaker, st.budget, st.lanes, c.Brownout.Enabled, c.Sample.Rate)
}

// randomEntryStack draws a stack: executor (eager, sequential,
// pipelined, batched or both), pipeline depth, batch size and window,
// SLO deadline and shedding, fault rate, hedging, breaker, retry budget
// and brownout. Failures are always tolerated, so every draw serves its
// whole trace.
func randomEntryStack(seed int64) entryStack {
	rng := rand.New(rand.NewSource(seed))
	st := entryStack{n: 16 + rng.Intn(17), rate: 1 + 5*rng.Float64(), lanes: 1 + rng.Intn(6), seed: seed}
	c := &st.cfg
	c.Throttle = ThrottlePolicy{MaxAttempts: 1 + rng.Intn(30), JitterSeed: seed}
	c.SLO.TolerateFailures = true
	switch rng.Intn(5) {
	case 0:
	case 1:
		c.Sequential = true
	case 2:
		c.Pipeline = PipelinePolicy{Depth: 2 + rng.Intn(3)}
	case 3:
		c.Batch = BatchPolicy{MaxBatch: 2 + rng.Intn(3), Window: time.Duration(rng.Intn(400)) * time.Millisecond, JitterSeed: seed}
	case 4:
		c.Pipeline = PipelinePolicy{Depth: 2 + rng.Intn(3)}
		c.Batch = BatchPolicy{MaxBatch: 2 + rng.Intn(3), Window: time.Duration(rng.Intn(400)) * time.Millisecond, JitterSeed: seed}
	}
	if rng.Intn(2) == 0 {
		c.SLO.Deadline = time.Duration(8+rng.Intn(30)) * time.Second
		c.SLO.Shed = rng.Intn(2) == 0
	}
	if rng.Intn(4) > 0 {
		st.faultRate = 0.6 * rng.Float64()
	}
	st.hedge, st.breaker, st.budget = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		c.Brownout = BrownoutPolicy{Enabled: true, MinJobs: 1, BadFraction: 0.1, StepUpAfter: 1, StepDownAfter: 1 + rng.Intn(3)}
	}
	if rng.Intn(2) == 0 {
		c.Sample = SamplePolicy{Rate: 0.5, Seed: seed}
	}
	return st
}

// serve runs the stack through one entry point on a fresh deployment
// pair and returns the report, the window stream and the meter total.
// Only the retained run samples.
func (st entryStack) serve(t *testing.T, stream bool) (*Report, []byte, float64) {
	t.Helper()
	e, fb := deployOverloadPair(t, faults.Uniform(st.faultRate, st.seed), func(cfg *coordinator.Config) {
		if st.hedge {
			cfg.Hedge = coordinator.HedgePolicy{Percentile: 90, MinSamples: 3, JitterSeed: st.seed}
		}
		if st.breaker {
			cfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 3, OpenFor: time.Second}
		}
		if st.budget {
			cfg.Budget = coordinator.BudgetPolicy{MaxTokens: 2, EarnPerSuccess: 0.1}
		}
	})
	e.pl.SetAccountConcurrency(st.lanes * e.dep.Partitions())
	series := obs.NewTimeSeries(250 * time.Millisecond)
	cfg := st.cfg
	cfg.Deployment, cfg.Fallback, cfg.Series = e.dep, fb, series
	arrivals := workload.PoissonArrivals(st.n, st.rate, st.seed)
	in := inputs(e.model, st.n)
	var rep *Report
	var err error
	if stream {
		cfg.Sample = SamplePolicy{}
		rep, err = ServeStream(cfg, sim.NewSlice(arrivals), func(i int) *tensor.Tensor { return in[i] })
	} else {
		rep, err = Serve(cfg, in, arrivals)
	}
	if err != nil {
		t.Fatal(err)
	}
	series.Close()
	var sb bytes.Buffer
	if err := series.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return rep, sb.Bytes(), e.meter.Total()
}

// Serve and ServeStream differ only in what they keep: over seeded
// random policy stacks, the retained run (traced jobs, span trees,
// head sampling) and the streaming run (pooled jobs, no trees) must
// produce reports equal field for field and bit for bit once Jobs is
// set aside, the same meter total and, unsampled, the same window
// stream. Both
// price a job by its calls' meter brackets and fold each request into
// the aggregates as it settles.
func TestServeMatchesServeStreamProperty(t *testing.T) {
	stacks := 40
	if testing.Short() {
		stacks = 12
	}
	for seed := int64(1); seed <= int64(stacks); seed++ {
		st := randomEntryStack(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			repR, seriesR, meterR := st.serve(t, false)
			repS, seriesS, meterS := st.serve(t, true)
			if len(repR.Jobs) != st.n || len(repS.Jobs) != 0 {
				t.Fatalf("%v: Serve kept %d jobs, ServeStream %d, of %d", st, len(repR.Jobs), len(repS.Jobs), st.n)
			}
			kept := *repR
			kept.Jobs = nil
			if !reflect.DeepEqual(&kept, repS) {
				t.Errorf("%v: reports differ:\n--- Serve ---\n%+v\n--- ServeStream ---\n%+v", st, kept, *repS)
			}
			// Head sampling counts its keep/drop decisions in the stream.
			if st.cfg.Sample.Rate == 0 && !bytes.Equal(seriesR, seriesS) {
				t.Errorf("%v: window streams differ", st)
			}
			if meterR != meterS {
				t.Errorf("%v: Serve billed %v, ServeStream %v", st, meterR, meterS)
			}
		})
	}
}
