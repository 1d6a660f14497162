package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ampsinf/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/help.golden and experiments_output.txt")

// parse registers the command's flags on a fresh set and parses args
// into it, printing nothing; no experiment runs.
func parse(args []string) error {
	f, _ := flags()
	f.SetOutput(io.Discard)
	return f.Parse(args)
}

// TestFlagRules: -metrics-window acts only on the -stream export, so
// without it the command line is rejected before any experiment runs.
func TestFlagRules(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // substring; empty = must parse
	}{
		{[]string{"-stream", "-", "-metrics-window", "5s"}, ""},
		{[]string{"-metrics-window", "5s"}, "-metrics-window acts only with -stream"},
		{[]string{"-stream", "-", "-metrics-window", "0s"}, "-metrics-window 0s: out of range"},
		{[]string{"figure9"}, `unexpected argument "figure9"`},
	} {
		err := parse(tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestHelpGolden pins the -h output. Run with -update to rewrite
// testdata/help.golden.
func TestHelpGolden(t *testing.T) {
	f, _ := flags()
	var got bytes.Buffer
	f.SetOutput(&got)
	if err := f.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	golden := filepath.Join("testdata", "help.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-h output differs from %s (go test -run TestHelpGolden -update rewrites it):\n%s", golden, got.String())
	}
}

// docLine matches an experiments command line in the docs once
// continuation lines are joined: its flags, up to a comment, a closing
// backquote or a shell '&'.
var docLine = regexp.MustCompile("go run \\./cmd/experiments([^`#&\n]*)")

// TestDocCommandLinesParse collects every experiments command line in
// README.md and the CI workflow and parses it: the docs must not show a
// command that errors on its flags.
func TestDocCommandLinesParse(t *testing.T) {
	n := 0
	for _, doc := range []string{"../../README.md", "../../.github/workflows/ci.yml"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(b), "\\\n", " ")
		for _, m := range docLine.FindAllStringSubmatch(text, -1) {
			if err := parse(strings.Fields(m[1])); err != nil {
				t.Errorf("%s: experiments%s: %v", doc, m[1], err)
			}
			n++
		}
	}
	if n < 5 {
		t.Errorf("found %d experiments command lines in the docs, want at least 5", n)
	}
}

// TestOutputGolden runs every experiment with -metrics and -stream
// exports and compares the tables with the checked-in
// experiments_output.txt byte for byte: the file is the command's
// current output, and telemetry does not perturb a table. Run with
// -update to rewrite the file.
func TestOutputGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full run is serial simulation; under the race detector it only multiplies time and memory")
	}
	tmp := t.TempDir()
	f, run := flags()
	if err := f.Parse([]string{"-metrics", filepath.Join(tmp, "metrics.json"), "-stream", filepath.Join(tmp, "stream.ndjson")}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		experiments.SetMetrics(nil)
		experiments.SetSeries(nil)
	})
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "experiments_output.txt")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d (go test -run TestOutputGolden -update rewrites it):\ngot  %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}
