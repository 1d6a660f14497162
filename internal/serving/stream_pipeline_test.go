package serving

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// TestServeStreamPipelinedMatchesServe: the streaming entry point under
// pipelined and batched policies must reproduce the retained staged
// scheduler's summary, metrics snapshot, time-series stream and meter
// total from the same lazy source, byte for byte — per-request results
// and span trees are the only things it may drop.
func TestServeStreamPipelinedMatchesServe(t *testing.T) {
	n := 64
	if testing.Short() {
		n = 24
	}
	stacks := []struct {
		name string
		cfg  Config
	}{
		{"pipeline", Config{
			Throttle: ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
			Pipeline: PipelinePolicy{Depth: 3},
		}},
		{"batch", Config{
			Throttle: ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
			Batch:    BatchPolicy{MaxBatch: 3, Window: 300 * time.Millisecond, JitterSeed: 5},
		}},
		{"full", Config{
			Throttle: ThrottlePolicy{MaxAttempts: 500, JitterSeed: 3},
			Pipeline: PipelinePolicy{Depth: 3},
			Batch:    BatchPolicy{MaxBatch: 2, Window: 250 * time.Millisecond, JitterSeed: 7},
			SLO:      SLOPolicy{Deadline: 2 * time.Second, Shed: true, TolerateFailures: true},
		}},
	}
	faults := []struct {
		rate float64
		seed int64
	}{{0, 0}, {0.3, 19}}
	for _, st := range stacks {
		for _, fr := range faults {
			t.Run(fmt.Sprintf("%s/fault%.0f@%d", st.name, fr.rate*100, fr.seed), func(t *testing.T) {
				cfg := st.cfg
				if fr.rate > 0 {
					cfg.SLO.TolerateFailures = true
				}
				arrivals := workload.PoissonArrivals(n, 6, 21)

				e1 := deployModel(t, zoo.LinearNet, fr.rate, fr.seed)
				e1.pl.SetAccountConcurrency(3 * e1.dep.Partitions())
				in1 := inputs(e1.model, n)
				cfgR := cfg
				cfgR.Deployment = e1.dep
				mx1 := obs.NewMetrics()
				ts1 := obs.NewTimeSeries(500 * time.Millisecond)
				cfgR.Metrics = mx1
				cfgR.Series = ts1
				repR, err := Serve(cfgR, in1, arrivals)
				if err != nil {
					t.Fatal(err)
				}
				ts1.Close()

				e2 := deployModel(t, zoo.LinearNet, fr.rate, fr.seed)
				e2.pl.SetAccountConcurrency(3 * e2.dep.Partitions())
				in2 := inputs(e2.model, n)
				cfgS := cfg
				cfgS.Deployment = e2.dep
				mx2 := obs.NewMetrics()
				ts2 := obs.NewTimeSeries(500 * time.Millisecond)
				cfgS.Metrics = mx2
				cfgS.Series = ts2
				repS, err := ServeStream(cfgS, sim.NewSlice(arrivals), func(i int) *tensor.Tensor { return in2[i] })
				if err != nil {
					t.Fatal(err)
				}
				ts2.Close()

				if repS.Mode != repR.Mode {
					t.Errorf("modes diverge: %q vs %q", repS.Mode, repR.Mode)
				}
				if a, b := repR.Summary(), repS.Summary(); a != b {
					t.Errorf("summaries diverge:\n--- retained ---\n%s\n--- stream ---\n%s", a, b)
				}
				if repS.Requests != n || len(repS.Jobs) != 0 {
					t.Errorf("stream run retained %d jobs (requests %d)", len(repS.Jobs), repS.Requests)
				}
				var ma, mb, sa, sb bytes.Buffer
				for _, err := range []error{mx1.WriteJSON(&ma), mx2.WriteJSON(&mb), ts1.WriteNDJSON(&sa), ts2.WriteNDJSON(&sb)} {
					if err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
					t.Errorf("metrics snapshots diverge:\n%s\nvs\n%s", ma.Bytes(), mb.Bytes())
				}
				if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
					t.Errorf("time-series streams diverge:\n%s\nvs\n%s", sa.Bytes(), sb.Bytes())
				}
				if t1, t2 := e1.meter.Total(), e2.meter.Total(); t1 != t2 {
					t.Errorf("meter totals diverge: %v vs %v", t1, t2)
				}
			})
		}
	}
}
