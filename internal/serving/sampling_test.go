package serving

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ampsinf/internal/obs"
	"ampsinf/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the serving golden files")

// sampleServe runs one fixed workload on a fresh environment and
// returns the report, the meter total and the metrics registry.
func sampleServe(t testing.TB, n int, sample SamplePolicy, series *obs.TimeSeries) (*Report, float64, *obs.Metrics) {
	t.Helper()
	e := deployTiny(t, false)
	e.pl.SetAccountConcurrency(8 * e.dep.Partitions())
	mx := obs.NewMetrics()
	rep, err := Serve(Config{
		Deployment: e.dep,
		Pipeline:   PipelinePolicy{Depth: 4},
		Batch:      BatchPolicy{MaxBatch: 4, Window: 200 * time.Millisecond, JitterSeed: 1},
		Throttle:   ThrottlePolicy{MaxAttempts: 500, JitterSeed: 1},
		Sample:     sample,
		Metrics:    mx,
		Series:     series,
	}, inputs(e.model, n), workload.PoissonArrivals(n, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	series.Close()
	return rep, e.meter.Total(), mx
}

// Rate 1 must be bit-for-bit identical to sampling disabled: same
// rendered report, same meter total, and every span tree materialized.
func TestSampleRateOneIdenticalToDisabled(t *testing.T) {
	const n = 32
	repOff, meterOff, _ := sampleServe(t, n, SamplePolicy{}, nil)
	repOne, meterOne, _ := sampleServe(t, n, SamplePolicy{Rate: 1, Seed: 9}, nil)
	if meterOff != meterOne {
		t.Fatalf("meter totals differ: %v vs %v", meterOff, meterOne)
	}
	if a, b := repOff.Render(), repOne.Render(); a != b {
		t.Fatalf("rendered reports differ:\n%s\n---\n%s", a, b)
	}
	ta, tb := repOff.Traces(), repOne.Traces()
	if len(ta) != n || len(tb) != n {
		t.Fatalf("rate 1 dropped trees: %d vs %d (want %d)", len(ta), len(tb), n)
	}
	if obs.CountSpans(ta) != obs.CountSpans(tb) {
		t.Fatal("span counts differ between rate 1 and disabled")
	}
}

// The tentpole acceptance property: under head sampling (rate < 1) a
// large serving run still reports the exact total cost — the meter and
// the report agree bit-for-bit with an unsampled same-seed run — while
// materializing only a fraction of the span trees, and the NDJSON
// metrics stream is byte-identical across two same-seed sampled runs.
func TestSampledServeExactCostAndDeterministicStream(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	sample := SamplePolicy{Rate: 0.1, Seed: 3}

	repOff, meterOff, _ := sampleServe(t, n, SamplePolicy{}, nil)
	ts1 := obs.NewTimeSeries(time.Second)
	rep1, meter1, mx1 := sampleServe(t, n, sample, ts1)
	ts2 := obs.NewTimeSeries(time.Second)
	rep2, meter2, _ := sampleServe(t, n, sample, ts2)

	// Exact cost: sampling never touches the money path, so the meter —
	// the exact source of truth — is bit-identical to the unsampled run,
	// and the report reconstructs it to the same tolerance the always-on
	// path is held to (a dropped job's cost is its meter-delta spend,
	// which can differ from the tracer replay in the last ulps).
	if meter1 != meterOff {
		t.Fatalf("sampled meter total %v ≠ unsampled %v", meter1, meterOff)
	}
	if diff := rep1.TotalCost - meter1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("report cost %v far from meter %v", rep1.TotalCost, meter1)
	}
	for i := range rep1.Jobs {
		if diff := rep1.Jobs[i].Cost - repOff.Jobs[i].Cost; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("request %d cost drifted under sampling: %v vs %v",
				i, rep1.Jobs[i].Cost, repOff.Jobs[i].Cost)
		}
		// A kept tree is the same tree the unsampled run built: its
		// replayed charges agree bit for bit.
		if tr := rep1.Jobs[i].Trace; tr != nil {
			if got, want := obs.SumCosts(tr), obs.SumCosts(repOff.Jobs[i].Trace); got != want {
				t.Fatalf("request %d kept tree replays %v, unsampled %v", i, got, want)
			}
		}
	}

	// Only a fraction of the trees exists; the counters account for
	// every completed request.
	kept := len(rep1.Traces())
	if kept == 0 || kept >= len(repOff.Traces()) {
		t.Fatalf("kept %d of %d trees — sampling not engaged", kept, len(repOff.Traces()))
	}
	// The keep decision is per admission unit (batch leader); the
	// counters partition the units and the kept fraction tracks the
	// rate.
	snap := mx1.Snapshot()
	sampled := snap.Counters["serving_spans_sampled_total"]
	dropped := snap.Counters["serving_spans_dropped_total"]
	if sampled == 0 || dropped == 0 {
		t.Fatalf("sampled %d, dropped %d — sampling not engaged", sampled, dropped)
	}
	if frac := float64(sampled) / float64(sampled+dropped); frac < 0.05 || frac > 0.15 {
		t.Fatalf("kept unit fraction %v far from rate %v", frac, sample.Rate)
	}

	// Determinism: same seeds → byte-identical stream and meter.
	if meter1 != meter2 {
		t.Fatalf("same-seed sampled runs metered differently: %v vs %v", meter1, meter2)
	}
	var a, b bytes.Buffer
	if err := ts1.WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := ts2.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed NDJSON streams differ (%d vs %d bytes)", a.Len(), b.Len())
	}
	if len(rep2.Traces()) != kept {
		t.Fatal("same-seed runs sampled different tree counts")
	}
}

// The NDJSON stream for a fixed small workload is pinned byte-for-byte.
// Regenerate deliberately with
// `go test ./internal/serving -run TestServeStreamGolden -update-golden`.
func TestServeStreamGolden(t *testing.T) {
	ts := obs.NewTimeSeries(500 * time.Millisecond)
	sampleServe(t, 16, SamplePolicy{Rate: 0.5, Seed: 11}, ts)
	var buf bytes.Buffer
	if err := ts.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "stream_golden.ndjson")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("metrics stream drifted from golden file %s:\n%s", path, got)
	}
}
