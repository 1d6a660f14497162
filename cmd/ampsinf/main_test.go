package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeInferCounts drives the subcommands that run jobs. serve and
// infer size a workload from a flag: a count below one must come back as
// an error, not reach the image generator, and a tiny valid run must
// succeed; a NaN or infinite float flag must come back as an error too.
// plan must plan under a binding SLO and under one that no plan meets.
// sweep must print its table, serve one measured job per feasible block
// when asked for a trace or metrics (and write both files), and decline
// to measure a model that does not fit one lambda. summary must describe
// a zoo model and name an unknown one.
func TestServeInferCounts(t *testing.T) {
	tmp := t.TempDir()
	trace, metrics := filepath.Join(tmp, "trace.json"), filepath.Join(tmp, "metrics.json")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = devnull // the subcommands print their reports
	t.Cleanup(func() { os.Stdout = stdout; devnull.Close() })

	for _, tc := range []struct {
		name    string
		cmd     func([]string) error
		args    []string
		wantErr string // substring; empty = must succeed
	}{
		{"serve negative", cmdServe, []string{"-model", "tinycnn", "-requests", "-1"}, "-requests -1"},
		{"serve zero", cmdServe, []string{"-model", "tinycnn", "-requests", "0"}, "-requests 0"},
		{"infer negative", cmdInfer, []string{"-model", "tinycnn", "-images", "-1"}, "-images -1"},
		{"infer zero", cmdInfer, []string{"-model", "tinycnn", "-images", "0"}, "-images 0"},
		{"serve three", cmdServe, []string{"-model", "tinycnn", "-requests", "3"}, ""},
		{"serve burst pipelined", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-pattern", "burst", "-burst-size", "0", "-pipeline", "2", "-batch", "2"}, ""},
		{"serve unknown pattern", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-pattern", "zipf"}, "unknown arrival pattern"},
		{"serve fallback brownout", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-fallback-bits", "4", "-brownout"}, ""},
		{"serve negative fallback", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-fallback-bits", "-4"}, "width -4"},
		{"serve 3-bit fallback", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-fallback-bits", "3"}, "width 3"},
		{"serve NaN budget", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-budget", "NaN"}, "-budget NaN"},
		{"serve NaN hedge percentile", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-hedge-pct", "NaN"}, "-hedge-pct NaN"},
		{"serve NaN fault rate", cmdServe, []string{"-model", "tinycnn", "-requests", "3", "-fault-rate", "NaN"}, "-fault-rate NaN"},
		{"infer NaN fault rate", cmdInfer, []string{"-model", "tinycnn", "-fault-rate", "NaN"}, "-fault-rate NaN"},
		{"infer infinite fault rate", cmdInfer, []string{"-model", "tinycnn", "-fault-rate", "+Inf"}, "-fault-rate +Inf"},
		{"infer one real", cmdInfer, []string{"-model", "tinycnn", "-real"}, ""},
		{"infer two", cmdInfer, []string{"-model", "tinycnn", "-images", "2"}, ""},
		{"infer two sequential", cmdInfer, []string{"-model", "tinycnn", "-images", "2", "-sequential"}, "-sequential"},
		{"infer two timeline", cmdInfer, []string{"-model", "tinycnn", "-images", "2", "-timeline"}, "-timeline"},
		{"plan binding slo", cmdPlan, []string{"-model", "resnet50", "-slo", "30s"}, ""},
		{"plan unattainable slo", cmdPlan, []string{"-model", "tinycnn", "-slo", "1ms"}, ""},
		{"sweep estimates", cmdSweep, []string{"-model", "tinycnn"}, ""},
		{"sweep measured", cmdSweep, []string{"-model", "tinycnn", "-trace", trace, "-metrics", metrics}, ""},
		{"sweep too big for one lambda", cmdSweep, []string{"-model", "resnet50", "-trace", filepath.Join(tmp, "none.json")}, ""},
		{"sweep unknown model", cmdSweep, []string{"-model", "nosuchnet"}, "nosuchnet"},
		{"summary", cmdSummary, []string{"-model", "tinycnn"}, ""},
		{"summary unknown model", cmdSummary, []string{"-model", "nosuchnet"}, "nosuchnet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cmd(tc.args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("%v: %v", tc.args, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("%v: error %v, want one naming %q", tc.args, err, tc.wantErr)
			}
		})
	}
	for _, f := range []string{trace, metrics} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("sweep measured left no %s (%v)", filepath.Base(f), err)
		}
	}
	if _, err := os.Stat(filepath.Join(tmp, "none.json")); err == nil {
		t.Error("sweep measured a model that does not fit one lambda")
	}
}
