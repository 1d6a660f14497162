package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ampsinf/internal/obs"
)

// promFixture builds a registry exercising every exposition shape:
// labeled and unlabeled counters, float totals, gauges, and a classic
// fixed-bound histogram.
func promFixture() *obs.Metrics {
	m := obs.NewMetrics()
	m.CounterHandle("lambda_invocations_total").Inc(12)
	m.CounterHandle(`lambda_faults_total{kind="crash"}`).Inc(2)
	m.CounterHandle(`lambda_faults_total{kind="throttle"}`).Inc(1)
	m.TotalHandle("serving_cost_usd_total").Add(0.012345)
	m.GaugeHandle("serving_queue_depth").Set(4)
	m.GaugeHandle(`lambda_pool_size{function="f0"}`).Set(3)
	for _, v := range []float64{0.004, 0.03, 0.25, 2.5, 40} {
		m.HistHandle("serving_latency_seconds").Observe(v)
	}
	return m
}

// The exposition for a fixed registry is pinned byte-for-byte.
// Regenerate deliberately with
// `go test ./internal/obs -run TestPrometheusGolden -update-golden`.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, promFixture().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "prometheus_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition drifted from golden file %s:\n%s", path, got)
	}
	// The pinned output must itself pass the linter, with every sample
	// line counted.
	samples, err := obs.LintExposition(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("golden exposition fails lint: %v", err)
	}
	if nonComment := countSampleLines(got); samples != nonComment {
		t.Fatalf("lint counted %d samples, exposition has %d", samples, nonComment)
	}
}

func countSampleLines(b []byte) int {
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// Histogram expansion must be cumulative with a +Inf bucket equal to
// the total count, per the classic Prometheus contract.
func TestPrometheusHistogramCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, promFixture().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE serving_latency_seconds histogram") {
		t.Fatalf("missing histogram TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `serving_latency_seconds_bucket{le="+Inf"} 5`) {
		t.Fatalf("+Inf bucket must equal total count:\n%s", out)
	}
	if !strings.Contains(out, "serving_latency_seconds_count 5") {
		t.Fatalf("missing _count:\n%s", out)
	}
	// Bucket counts never decrease as le grows.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "serving_latency_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}

func TestLintExpositionRejects(t *testing.T) {
	for _, tc := range []struct{ name, doc string }{
		{"empty", ""},
		{"bad metric name", "9bad_name 1\n"},
		{"unterminated labels", `m{foo="bar 1` + "\n"},
		{"unquoted label", "m{foo=bar} 1\n"},
		{"missing value", "metric_name\n"},
		{"bad value", "m NOPE\n"},
		{"unknown type", "# TYPE m sandwich\nm 1\n"},
	} {
		if _, err := obs.LintExposition(strings.NewReader(tc.doc)); err == nil {
			t.Fatalf("%s: lint accepted %q", tc.name, tc.doc)
		}
	}
	// Legal edge cases: timestamps, +Inf values, free-form comments.
	ok := "# a comment\n# TYPE m counter\nm 1\nm{a=\"b\"} 2 1234567890\nh_bucket{le=\"+Inf\"} 3\n"
	samples, err := obs.LintExposition(strings.NewReader(ok))
	if err != nil || samples != 3 {
		t.Fatalf("lint rejected a legal exposition (%d samples): %v", samples, err)
	}
}
