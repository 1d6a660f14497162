package serving

import (
	"sort"
	"strconv"
	"testing"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/workload"
)

// invokeWindow is one invoke span projected onto the absolute serving
// clock, with the identity attrs the invariant checks key on.
type invokeWindow struct {
	function  string
	container int
	request   int
	order     int // position within the request's partition chain
	start     time.Duration
	end       time.Duration
}

// collectInvokes flattens every invoke span in the report's traces.
// Spans inside a request tree use offsets relative to their parent
// chain, so absolute instants accumulate down the walk.
func collectInvokes(t *testing.T, rep *Report) []invokeWindow {
	t.Helper()
	var wins []invokeWindow
	for i := range rep.Jobs {
		tr := rep.Jobs[i].Trace
		if tr == nil {
			t.Fatalf("request %d has no trace", i)
		}
		order := 0
		tr.Walk(func(s *obs.Span) {
			if s.Kind != obs.KindInvoke {
				return
			}
			cid, err := strconv.Atoi(s.Attrs["container"])
			if err != nil {
				t.Fatalf("request %d invoke span missing container attr: %v", i, err)
			}
			wins = append(wins, invokeWindow{
				function: s.Attrs["function"], container: cid,
				request: i, order: order,
				start: s.Start, end: s.Start + s.Duration,
			})
			order++
		})
	}
	return wins
}

// servePipelinedTiny runs one fault-free pipelined serve over a fresh
// tiny deployment and returns the report with its environment.
func servePipelinedTiny(t *testing.T, cfg Config, n int, arrivals []time.Duration) (*Report, *testEnv) {
	t.Helper()
	e := deployTiny(t, false)
	e.pl.SetAccountConcurrency(3 * e.dep.Partitions())
	cfg.Deployment = e.dep
	rep, err := Serve(cfg, inputs(e.model, n), arrivals)
	if err != nil {
		t.Fatal(err)
	}
	return rep, e
}

// TestServePipelinedBasic: a pipelined run completes every request,
// produces valid span trees, and replays the meter total bit for bit.
func TestServePipelinedBasic(t *testing.T) {
	n := 10
	rep, e := servePipelinedTiny(t, Config{
		Pipeline: PipelinePolicy{Depth: 4},
		Throttle: ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
	}, n, workload.PoissonArrivals(n, 2, 11))
	if rep.Mode != "pipelined" {
		t.Fatalf("mode %q", rep.Mode)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if jr.Outcome != OutcomeOK {
			t.Fatalf("request %d outcome %s", i, jr.Outcome)
		}
		if jr.Done <= jr.Start || jr.Start < jr.Arrival {
			t.Fatalf("request %d inconsistent timeline %+v", i, jr)
		}
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v", got, want)
	}
}

// TestPipelineContainerExclusive: no container ever executes two
// invocations at once — for every (function, container) pair the invoke
// windows across all requests are disjoint.
func TestPipelineContainerExclusive(t *testing.T) {
	n := 12
	rep, _ := servePipelinedTiny(t, Config{
		Pipeline: PipelinePolicy{Depth: 6},
		Throttle: ThrottlePolicy{MaxAttempts: 500, JitterSeed: 7},
	}, n, workload.BurstArrivals(n, 4, 300*time.Millisecond))
	wins := collectInvokes(t, rep)
	byContainer := map[string][]invokeWindow{}
	for _, w := range wins {
		key := w.function + "#" + strconv.Itoa(w.container)
		byContainer[key] = append(byContainer[key], w)
	}
	for key, ws := range byContainer {
		sort.Slice(ws, func(a, b int) bool { return ws[a].start < ws[b].start })
		for i := 1; i < len(ws); i++ {
			if ws[i].start < ws[i-1].end {
				t.Fatalf("container %s overlaps: req %d [%v,%v] vs req %d [%v,%v]",
					key, ws[i-1].request, ws[i-1].start, ws[i-1].end,
					ws[i].request, ws[i].start, ws[i].end)
			}
		}
	}
}

// TestPipelinePartitionOrder: within each request the partitions run in
// order — invocation i+1 starts no earlier than invocation i ends.
func TestPipelinePartitionOrder(t *testing.T) {
	n := 8
	rep, e := servePipelinedTiny(t, Config{
		Pipeline: PipelinePolicy{Depth: 3},
		Throttle: ThrottlePolicy{MaxAttempts: 200, JitterSeed: 5},
	}, n, workload.PoissonArrivals(n, 3, 9))
	names := e.dep.FunctionNames()
	wins := collectInvokes(t, rep)
	byReq := map[int][]invokeWindow{}
	for _, w := range wins {
		byReq[w.request] = append(byReq[w.request], w)
	}
	for req, ws := range byReq {
		if len(ws) != len(names) {
			t.Fatalf("request %d ran %d partitions, want %d", req, len(ws), len(names))
		}
		for i, w := range ws {
			if w.function != names[i] {
				t.Fatalf("request %d stage %d ran %s, want %s", req, i, w.function, names[i])
			}
			if i > 0 && w.start < ws[i-1].end {
				t.Fatalf("request %d stage %d starts %v before stage %d ends %v",
					req, i, w.start, i-1, ws[i-1].end)
			}
		}
	}
}

// TestPipelineConcurrencyLimit: the account concurrency limit holds
// under pipelining — neither the platform's own peak sample nor the
// maximum overlap of invoke windows ever exceeds it.
func TestPipelineConcurrencyLimit(t *testing.T) {
	e := deployTiny(t, false)
	width := e.dep.Partitions()
	limit := width + 1
	e.pl.SetAccountConcurrency(limit)
	n := 10
	rep, err := Serve(Config{
		Deployment: e.dep,
		Pipeline:   PipelinePolicy{Depth: 5},
		Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 13},
	}, inputs(e.model, n), workload.BurstArrivals(n, 5, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakInFlight > limit {
		t.Fatalf("peak in-flight %d exceeds limit %d", rep.PeakInFlight, limit)
	}
	// Sweep the invoke windows: at every start instant count overlaps.
	wins := collectInvokes(t, rep)
	for _, w := range wins {
		overlap := 0
		for _, o := range wins {
			if o.start <= w.start && w.start < o.end {
				overlap++
			}
		}
		if overlap > limit {
			t.Fatalf("%d concurrent invocations at %v exceed limit %d", overlap, w.start, limit)
		}
	}
}

// TestServeBatchedBasic: batching coalesces burst arrivals into shared
// invocations — fewer jobs than requests, batch-ride spans on the
// followers, split costs reconstructing each job's charge, and the
// meter total still replayed bit for bit.
func TestServeBatchedBasic(t *testing.T) {
	n := 8
	// Two bursts of four: each burst coalesces into one batch.
	arrivals := workload.BurstArrivals(n, 4, 30*time.Second)
	rep, e := servePipelinedTiny(t, Config{
		Batch:    BatchPolicy{MaxBatch: 4, Window: 2 * time.Second, JitterSeed: 3},
		Throttle: ThrottlePolicy{MaxAttempts: 200, JitterSeed: 3},
	}, n, arrivals)
	if rep.Mode != "batched" {
		t.Fatalf("mode %q", rep.Mode)
	}
	if rep.Completed != n {
		t.Fatalf("completed %d of %d", rep.Completed, n)
	}
	rides, leaders := 0, 0
	for i := range rep.Jobs {
		jr := &rep.Jobs[i]
		if err := obs.ValidateTree(jr.Trace); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		isRide := false
		jr.Trace.Walk(func(s *obs.Span) {
			if s.Kind == obs.KindBatch {
				isRide = true
			}
		})
		if isRide {
			rides++
		} else {
			leaders++
		}
	}
	if leaders != 2 || rides != n-2 {
		t.Fatalf("expected 2 leaders and %d riders, got %d and %d", n-2, leaders, rides)
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v", got, want)
	}
	// Members of one batch share the leader's job cost exactly.
	var batchSum float64
	for i := 0; i < 4; i++ {
		batchSum += rep.Jobs[i].Cost
	}
	var leaderJob float64
	rep.Jobs[0].Trace.Walk(func(s *obs.Span) {
		if s.Kind == obs.KindJob && s.Track == "coordinator" {
			leaderJob = obs.SumCostsAll([]*obs.Span{s})
		}
	})
	if batchSum != leaderJob {
		t.Fatalf("batch member costs sum %v != shared job cost %v", batchSum, leaderJob)
	}
}

// TestPipelineCostIdentityProperty: the SumCostsAll ≡ meter-total
// identity holds bit for bit across pipelined, batched and combined
// schedules composed with hedging, breakers, shedding and fault storms.
func TestPipelineCostIdentityProperty(t *testing.T) {
	cases := []struct {
		name string
		rate float64
		seed int64
		cfg  Config
	}{
		{"pipelined-clean", 0, 1, Config{
			Pipeline: PipelinePolicy{Depth: 4},
		}},
		{"batched-faults", 0.3, 21, Config{
			Batch: BatchPolicy{MaxBatch: 3, Window: time.Second, JitterSeed: 2},
			SLO:   SLOPolicy{TolerateFailures: true},
		}},
		{"pipelined-batched-hedged", 0.4, 33, Config{
			Pipeline: PipelinePolicy{Depth: 3},
			Batch:    BatchPolicy{MaxBatch: 2, Window: 500 * time.Millisecond, JitterSeed: 4},
			SLO:      SLOPolicy{TolerateFailures: true},
		}},
		{"pipelined-shed", 0.5, 44, Config{
			Pipeline: PipelinePolicy{Depth: 4},
			SLO:      SLOPolicy{Deadline: 12 * time.Second, Shed: true, TolerateFailures: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := deployResilient(t, tc.rate, tc.seed, func(cfg *coordinator.Config) {
				if tc.rate > 0 {
					cfg.Hedge = coordinator.HedgePolicy{Delay: 2 * time.Millisecond, MaxRate: 0.5, JitterSeed: tc.seed}
					cfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 4}
				}
			})
			e.pl.SetAccountConcurrency(3 * e.dep.Partitions())
			n := 12
			cfg := tc.cfg
			cfg.Deployment = e.dep
			cfg.Throttle = ThrottlePolicy{MaxAttempts: 500, JitterSeed: tc.seed}
			rep, err := Serve(cfg, inputs(e.model, n), workload.PoissonArrivals(n, 1.5, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
				t.Fatalf("span-replayed cost %v != meter total %v", got, want)
			}
			for i := range rep.Jobs {
				if rep.Jobs[i].Trace == nil {
					t.Fatalf("request %d lost its trace", i)
				}
				if err := obs.ValidateTree(rep.Jobs[i].Trace); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
		})
	}
}

// TestServePipelinedDeterministic: identical pipelined+batched runs on
// fresh environments render byte-identically and bill identically.
func TestServePipelinedDeterministic(t *testing.T) {
	n := 14
	arrivals := workload.PoissonArrivals(n, 2, 17)
	run := func() (string, float64) {
		e := deployTiny(t, false)
		e.pl.SetAccountConcurrency(3 * e.dep.Partitions())
		rep, err := Serve(Config{
			Deployment: e.dep,
			Pipeline:   PipelinePolicy{Depth: 4},
			Batch:      BatchPolicy{MaxBatch: 3, Window: time.Second, JitterSeed: 9},
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 9},
		}, inputs(e.model, n), arrivals)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render(), e.meter.Total()
	}
	out1, total1 := run()
	out2, total2 := run()
	if out1 != out2 {
		t.Fatal("pipelined+batched runs diverge")
	}
	if total1 != total2 {
		t.Fatalf("meter totals diverge: %v vs %v", total1, total2)
	}
}

// TestServePipelinedValidation covers the new policy error paths.
func TestServePipelinedValidation(t *testing.T) {
	e := deployTiny(t, false)
	in := inputs(e.model, 1)
	at := []time.Duration{0}
	if _, err := Serve(Config{Deployment: e.dep, Pipeline: PipelinePolicy{Depth: -1}}, in, at); err == nil {
		t.Fatal("negative pipeline depth accepted")
	}
	if _, err := Serve(Config{Deployment: e.dep, Batch: BatchPolicy{MaxBatch: -2}}, in, at); err == nil {
		t.Fatal("negative batch size accepted")
	}
	if _, err := Serve(Config{Deployment: e.dep, Batch: BatchPolicy{MaxBatch: 2, Window: -time.Second}}, in, at); err == nil {
		t.Fatal("negative batch window accepted")
	}
}

// BenchmarkServePipelinedThroughput mirrors BenchmarkServeThroughput
// for the staged scheduler: a 64-request Poisson trace served with
// pipelining and batching enabled, under the production-style 10%
// span-sampling rate (dropped requests skip building their trees).
func BenchmarkServePipelinedThroughput(b *testing.B) {
	benchServePipelined(b, SamplePolicy{Rate: 0.1, Seed: 1})
}

// BenchmarkServePipelinedThroughputAllSpans is the always-on tracing
// comparator: identical workload with every span tree materialized.
// Diffing its allocs/op against BenchmarkServePipelinedThroughput shows
// what head sampling saves.
func BenchmarkServePipelinedThroughputAllSpans(b *testing.B) {
	benchServePipelined(b, SamplePolicy{})
}

func benchServePipelined(b *testing.B, sample SamplePolicy) {
	n := 64
	arrivals := workload.PoissonArrivals(n, 10, 7)
	total := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := deployTiny(b, false)
		e.pl.SetAccountConcurrency(8 * e.dep.Partitions())
		ins := inputs(e.model, n)
		b.StartTimer()
		rep, err := Serve(Config{
			Deployment: e.dep,
			Pipeline:   PipelinePolicy{Depth: 4},
			Batch:      BatchPolicy{MaxBatch: 4, Window: 200 * time.Millisecond, JitterSeed: 1},
			Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 1},
			Sample:     sample,
		}, ins, arrivals)
		if err != nil {
			b.Fatal(err)
		}
		total += len(rep.Jobs)
	}
	b.ReportMetric(float64(total)/float64(b.N), "requests/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(total)/s, "req/s")
	}
}

// TestChaosBatchedTracesReplayMeter: under a 60% fault storm, staged
// and batched, with failures tolerated, the span forest of a retained,
// unsampled run still replays the meter total bit for bit — failed
// batches, retries and stage failures included.
func TestChaosBatchedTracesReplayMeter(t *testing.T) {
	const n = 40
	e := deployModel(t, zoo.TinyCNN, 0.6, 131)
	e.pl.SetAccountConcurrency(3 * e.dep.Partitions())
	rep, err := Serve(Config{
		Deployment: e.dep,
		Pipeline:   PipelinePolicy{Depth: 3},
		Batch:      BatchPolicy{MaxBatch: 4, Window: time.Second, JitterSeed: 5},
		Throttle:   ThrottlePolicy{MaxAttempts: 3, JitterSeed: 3},
		SLO:        SLOPolicy{TolerateFailures: true},
	}, inputs(e.model, n), workload.PoissonArrivals(n, 2, 17))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 || rep.Completed == n {
		t.Fatalf("the storm did not bite: %d faults, %d of %d completed", rep.Faults, rep.Completed, n)
	}
	if got, want := obs.SumCostsAll(rep.Traces()), e.meter.Total(); got != want {
		t.Fatalf("span-replayed cost %v != meter total %v", got, want)
	}
}
