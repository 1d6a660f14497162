package main

import (
	"os"
	"strings"
	"testing"
)

// TestServeInferCounts drives the two subcommands that size a workload
// from a flag: a count below one must come back as an error, not reach
// the image generator, and a tiny valid run must succeed.
func TestServeInferCounts(t *testing.T) {
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
		{"infer one real", cmdInfer, []string{"-model", "tinycnn", "-real"}, ""},
		{"infer two", cmdInfer, []string{"-model", "tinycnn", "-images", "2"}, ""},
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
}
