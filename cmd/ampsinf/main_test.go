package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cli"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files")

// lookup returns the subcommand called name.
func lookup(t *testing.T, name string) command {
	t.Helper()
	for _, c := range commands {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no subcommand %q", name)
	return command{}
}

// parse registers the subcommand's flags on a fresh set and parses args
// into it, printing nothing.
func parse(t *testing.T, name string, args []string) error {
	f, _ := lookup(t, name).flags()
	f.SetOutput(io.Discard)
	return f.Parse(args)
}

// wallClock matches the lines that report real elapsed time.
var wallClock = regexp.MustCompile(`(?m)^.*(plan computed in|planning took).*$`)

// capture runs a command line and returns what it printed to stdout
// (wall-clock lines blanked) and its error.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	b, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return wallClock.ReplaceAllString(string(b), ""), err
}

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
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string // substring; empty = must succeed
	}{
		{"serve negative", []string{"serve", "-model", "tinycnn", "-requests", "-1"}, "-requests -1"},
		{"serve zero", []string{"serve", "-model", "tinycnn", "-requests", "0"}, "-requests 0"},
		{"infer negative", []string{"infer", "-model", "tinycnn", "-images", "-1"}, "-images -1"},
		{"infer zero", []string{"infer", "-model", "tinycnn", "-images", "0"}, "-images 0"},
		{"serve three", []string{"serve", "-model", "tinycnn", "-requests", "3"}, ""},
		{"serve burst pipelined", []string{"serve", "-model", "tinycnn", "-requests", "3", "-pattern", "burst", "-burst-size", "2", "-pipeline", "2", "-batch", "2"}, ""},
		{"serve burst size zero", []string{"serve", "-model", "tinycnn", "-requests", "3", "-pattern", "burst", "-burst-size", "0"}, "-burst-size 0"},
		{"serve unknown pattern", []string{"serve", "-model", "tinycnn", "-requests", "3", "-pattern", "zipf"}, "unknown arrival pattern"},
		{"serve fallback brownout", []string{"serve", "-model", "tinycnn", "-requests", "3", "-fallback-bits", "4", "-brownout"}, ""},
		{"serve negative fallback", []string{"serve", "-model", "tinycnn", "-requests", "3", "-brownout", "-fallback-bits", "-4"}, "width -4"},
		{"serve 3-bit fallback", []string{"serve", "-model", "tinycnn", "-requests", "3", "-brownout", "-fallback-bits", "3"}, "width 3"},
		{"serve NaN budget", []string{"serve", "-model", "tinycnn", "-requests", "3", "-budget", "NaN"}, "-budget NaN"},
		{"serve NaN hedge percentile", []string{"serve", "-model", "tinycnn", "-requests", "3", "-hedge-pct", "NaN"}, "-hedge-pct NaN"},
		{"serve NaN fault rate", []string{"serve", "-model", "tinycnn", "-requests", "3", "-fault-rate", "NaN"}, "-fault-rate NaN"},
		{"infer NaN fault rate", []string{"infer", "-model", "tinycnn", "-fault-rate", "NaN"}, "-fault-rate NaN"},
		{"infer infinite fault rate", []string{"infer", "-model", "tinycnn", "-fault-rate", "+Inf"}, "-fault-rate +Inf"},
		{"infer one real", []string{"infer", "-model", "tinycnn", "-real"}, ""},
		{"infer two", []string{"infer", "-model", "tinycnn", "-images", "2"}, ""},
		{"infer two sequential", []string{"infer", "-model", "tinycnn", "-images", "2", "-sequential"}, "-sequential"},
		{"infer two timeline", []string{"infer", "-model", "tinycnn", "-images", "2", "-timeline"}, "-timeline"},
		{"plan binding slo", []string{"plan", "-model", "resnet50", "-slo", "30s"}, ""},
		{"plan unattainable slo", []string{"plan", "-model", "tinycnn", "-slo", "1ms"}, ""},
		{"sweep estimates", []string{"sweep", "-model", "tinycnn"}, ""},
		{"sweep measured", []string{"sweep", "-model", "tinycnn", "-trace", trace, "-metrics", metrics}, ""},
		{"sweep too big for one lambda", []string{"sweep", "-model", "resnet50", "-trace", filepath.Join(tmp, "none.json")}, "does not fit one"},
		{"sweep unknown model", []string{"sweep", "-model", "nosuchnet"}, "nosuchnet"},
		{"summary", []string{"summary", "-model", "tinycnn"}, ""},
		{"summary unknown model", []string{"summary", "-model", "nosuchnet"}, "nosuchnet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := capture(t, tc.args...)
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

// TestHelpGolden pins every subcommand's -h output, the one reference for
// its flags. Run with -update to rewrite testdata/help.golden.
func TestHelpGolden(t *testing.T) {
	var got bytes.Buffer
	for _, c := range commands {
		f, _ := c.flags()
		f.SetOutput(&got)
		if err := f.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: %v, want flag.ErrHelp", c.name, err)
		}
	}
	checkGolden(t, "help.golden", got.String())
}

// TestInferGolden pins what infer prints for a parallel batch, for one
// sequential job with its timeline and for one eager two-partition job
// that absorbs faults (retries, backoffs, an input-poll wait), wall-clock
// lines blanked, and that eager job's span dump: exact starts, durations
// and cost events. Run with -update to rewrite the goldens.
func TestInferGolden(t *testing.T) {
	eagerFaults := []string{"infer", "-model", "resnet50", "-fault-rate", "0.3", "-fault-seed", "2", "-timeline"}
	for _, tc := range []struct {
		golden string
		args   []string
		spans  bool // the golden holds the run's -spans dump, not its stdout
	}{
		{"infer_images3.golden", []string{"infer", "-model", "tinycnn", "-images", "3"}, false},
		{"infer_sequential_timeline.golden", []string{"infer", "-model", "tinycnn", "-sequential", "-timeline"}, false},
		{"infer_eager_faults_timeline.golden", eagerFaults, false},
		{"infer_eager_faults_spans.golden", eagerFaults, true},
	} {
		args := tc.args
		dump := filepath.Join(t.TempDir(), "spans.json")
		if tc.spans {
			args = append(args[:len(args):len(args)], "-spans", dump)
		}
		got, err := capture(t, args...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if tc.spans {
			b, err := os.ReadFile(dump)
			if err != nil {
				t.Fatal(err)
			}
			got = string(b)
		}
		checkGolden(t, tc.golden, got)
	}
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s (-update rewrites it):\n%s", golden, got)
	}
}

// outside returns values of f's kind that its rule rejects: one below
// the lower bound (or on it, when the bound is exclusive), one above the
// upper bound and, for floats, NaN.
func outside(f *flag.Flag, r cli.Rule) []string {
	get := f.Value.(flag.Getter).Get()
	step := 1.0
	if _, ok := get.(time.Duration); ok {
		step = float64(time.Second)
	}
	var xs []float64
	switch {
	case r.Open:
		xs = append(xs, r.Min)
	case !math.IsInf(r.Min, -1):
		xs = append(xs, r.Min-step)
	}
	if !math.IsInf(r.Max, 1) {
		xs = append(xs, r.Max+step)
	}
	var vals []string
	for _, x := range xs {
		if _, ok := get.(time.Duration); ok {
			vals = append(vals, time.Duration(x).String())
		} else {
			vals = append(vals, strconv.FormatFloat(x, 'g', -1, 64))
		}
	}
	if _, ok := get.(float64); ok {
		vals = append(vals, "NaN")
	}
	return vals
}

// bases are the argument lists a subcommand's flags are checked against:
// each dependent flag must find one in which its setting is off.
var bases = map[string][][]string{
	"plan":  {nil},
	"infer": {nil, {"-images", "2"}},
	"serve": {nil, {"-pattern", "uniform"}, {"-pipeline", "2"}},
}

// TestFlagRules walks every subcommand's registered flags, not a hand
// list: a flag with a range must reject a value outside it, naming the
// flag, and a dependent flag set without its setting must be an error
// naming both.
func TestFlagRules(t *testing.T) {
	for _, c := range commands {
		f, _ := c.flags()
		f.VisitAll(func(fl *flag.Flag) {
			r := f.Rule(fl.Name)
			for _, v := range outside(fl, r) {
				arg := "-" + fl.Name + "=" + v
				if err := parse(t, c.name, []string{arg}); err == nil || !strings.Contains(err.Error(), "-"+fl.Name+" "+v) {
					t.Errorf("%s %s: error %v, want one naming the flag and value", c.name, arg, err)
				}
			}
			if r.Active == nil {
				return
			}
			v := fl.DefValue
			if _, ok := fl.Value.(flag.Getter).Get().(bool); ok {
				v = "true"
			}
			for _, base := range bases[c.name] {
				g, _ := lookup(t, c.name).flags()
				g.SetOutput(io.Discard)
				if err := g.Parse(base); err != nil {
					t.Fatalf("%s %v: %v", c.name, base, err)
				}
				if g.Rule(fl.Name).Active() {
					continue
				}
				err := parse(t, c.name, append(append([]string(nil), base...), "-"+fl.Name+"="+v))
				if want := "-" + fl.Name + " acts only with " + r.With; err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s %v -%s=%s: error %v, want %q", c.name, base, fl.Name, v, err, want)
				}
				return
			}
			t.Errorf("%s -%s: no base argument list turns off %s", c.name, fl.Name, r.With)
		})
	}
}

// exempt lists the flags no scenario row shows acting, and why.
var exempt = map[string]string{
	"serve -http": "blocks until interrupted; CI's monitor smoke scrapes it",
	"serve -real": "changes only wall-clock work: the serve report is computed on the simulated clock either way",
}

// TestEveryFlagActs runs one scenario row per registered flag: the row's
// base arguments with and without the flag. The flag acts if the output
// (stdout and error) differs or if the file it names gets written. Every
// registered flag needs a row, bar the exemptions above.
func TestEveryFlagActs(t *testing.T) {
	tmp := t.TempDir()
	file := func(name string) string { return filepath.Join(tmp, name) }
	tiny := []string{"-model", "tinycnn"}
	serve3 := []string{"-model", "tinycnn", "-requests", "3"}
	with := func(base []string, more ...string) []string { return append(append([]string(nil), base...), more...) }
	storm := []string{"-model", "tinycnn", "-requests", "40", "-rate", "2", "-tolerate"}
	brown := with(storm, "-brownout", "-metrics-window", "5s")
	rows := []struct {
		cmd        string
		flag, base []string
	}{
		{"summary", []string{"-model", "tinycnn"}, nil},

		{"plan", []string{"-model", "tinycnn"}, nil},
		{"plan", []string{"-slo", "20s"}, []string{"-model", "resnet50"}},
		{"plan", []string{"-max-lambdas", "3"}, []string{"-model", "bertbase"}},
		{"plan", []string{"-bnb"}, []string{"-model", "mobilenet"}},
		{"plan", []string{"-cpuprofile", file("plan.cpu")}, tiny},
		{"plan", []string{"-memprofile", file("plan.mem")}, tiny},

		{"infer", []string{"-model", "tinycnn"}, nil},
		{"infer", []string{"-slo", "1ms"}, tiny},
		{"infer", []string{"-images", "2"}, tiny},
		{"infer", []string{"-sequential"}, tiny},
		{"infer", []string{"-real"}, tiny},
		{"infer", []string{"-real"}, with(tiny, "-images", "2")},
		{"infer", []string{"-timeline"}, tiny},
		{"infer", []string{"-fault-rate", "0.9"}, tiny},
		{"infer", []string{"-fault-seed", "2"}, with(tiny, "-fault-rate", "0.3")},
		{"infer", []string{"-retries", "1"}, []string{"-model", "mobilenet", "-fault-rate", "0.3", "-fault-seed", "2"}},
		{"infer", []string{"-trace", file("infer.trace")}, tiny},
		{"infer", []string{"-spans", file("infer.spans")}, tiny},
		{"infer", []string{"-metrics", file("infer.metrics")}, tiny},
		{"infer", []string{"-cpuprofile", file("infer.cpu")}, tiny},
		{"infer", []string{"-memprofile", file("infer.mem")}, tiny},

		{"sweep", []string{"-model", "tinycnn"}, nil},
		{"sweep", []string{"-trace", file("sweep.trace")}, tiny},
		{"sweep", []string{"-metrics", file("sweep.metrics")}, tiny},
		{"sweep", []string{"-cpuprofile", file("sweep.cpu")}, tiny},
		{"sweep", []string{"-memprofile", file("sweep.mem")}, tiny},

		{"serve", []string{"-model", "tinycnn"}, []string{"-requests", "3"}},
		{"serve", []string{"-slo", "1ms"}, serve3},
		{"serve", []string{"-requests", "4"}, serve3},
		{"serve", []string{"-pattern", "uniform"}, serve3},
		{"serve", []string{"-rate", "1"}, serve3},
		{"serve", []string{"-window", "1s"}, with(serve3, "-pattern", "uniform")},
		{"serve", []string{"-burst-size", "2"}, with(serve3, "-pattern", "burst")},
		{"serve", []string{"-gap", "1s"}, with(serve3, "-pattern", "burst", "-burst-size", "2")},
		{"serve", []string{"-seed", "3"}, serve3},
		{"serve", []string{"-limit", "1"}, serve3},
		{"serve", []string{"-pipeline", "2"}, serve3},
		{"serve", []string{"-batch", "2"}, serve3},
		{"serve", []string{"-sequential"}, serve3},
		{"serve", []string{"-batch-window", "10s"}, []string{"-model", "tinycnn", "-requests", "20", "-batch", "4", "-rate", "2"}},
		{"serve", []string{"-full"}, serve3},
		{"serve", []string{"-fault-rate", "0.3"}, with(serve3, "-tolerate")},
		{"serve", []string{"-retries", "1"}, with(serve3, "-fault-rate", "0.3", "-tolerate")},
		{"serve", []string{"-domains", "3"}, with(storm, "-domain-outage-every", "20s")},
		{"serve", []string{"-domain-outage-every", "20s"}, with(storm, "-domains", "3")},
		{"serve", []string{"-domain-outage-length", "1s"}, with(storm, "-domains", "3", "-domain-outage-every", "20s")},
		{"serve", []string{"-burst-every", "10s"}, with(storm, "-fault-rate", "0.05")},
		{"serve", []string{"-burst-length", "9s"}, with(storm, "-fault-rate", "0.05", "-burst-every", "10s")},
		{"serve", []string{"-burst-factor", "2"}, with(storm, "-fault-rate", "0.05", "-burst-every", "10s")},
		{"serve", []string{"-deadline", "1s"}, serve3},
		{"serve", []string{"-shed"}, []string{"-model", "tinycnn", "-requests", "20", "-deadline", "9s", "-tolerate", "-limit", "1"}},
		{"serve", []string{"-tolerate"}, serve3},
		{"serve", []string{"-hedge", "1s"}, with(storm, "-fault-rate", "0.3")},
		{"serve", []string{"-hedge-pct", "50"}, with(storm, "-fault-rate", "0.3")},
		{"serve", []string{"-hedge-rate", "0.9"}, with(storm, "-fault-rate", "0.3", "-hedge", "1s")},
		{"serve", []string{"-breaker", "1"}, with(storm, "-fault-rate", "0.3")},
		{"serve", []string{"-budget", "1"}, with(storm, "-fault-rate", "0.3")},
		{"serve", []string{"-budget-earn", "0.01"}, with(storm, "-fault-rate", "0.3", "-budget", "1")},
		{"serve", []string{"-fallback-bits", "4"}, []string{"-model", "tinycnn", "-requests", "80", "-rate", "8", "-limit", "1", "-tolerate", "-brownout", "-metrics-window", "5s"}},
		{"serve", []string{"-brownout"}, with(storm, "-limit", "2")},
		{"serve", []string{"-brownout-p99", "1s"}, brown},
		{"serve", []string{"-brownout-bad", "0.9"}, with(brown, "-fault-rate", "0.5", "-retries", "1")},
		{"serve", []string{"-metrics-window", "10s"}, with(storm, "-limit", "2", "-brownout")},
		{"serve", []string{"-sample-rate", "0.5"}, with(storm, "-trace", file("sampled.trace"))}, // fewer spans
		{"serve", []string{"-stream", file("serve.stream")}, serve3},
		{"serve", []string{"-trace", file("serve.trace")}, serve3},
		{"serve", []string{"-spans", file("serve.spans")}, serve3},
		{"serve", []string{"-metrics", file("serve.metrics")}, serve3},
		{"serve", []string{"-cpuprofile", file("serve.cpu")}, serve3},
		{"serve", []string{"-memprofile", file("serve.mem")}, serve3},
	}
	shown := map[string]bool{}
	for _, row := range rows {
		name := row.cmd + " " + row.flag[0]
		t.Run(name, func(t *testing.T) {
			args := with(row.base, row.flag...)
			if err := parse(t, row.cmd, args); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			withOut, withErr := capture(t, with([]string{row.cmd}, args...)...)
			without, withoutErr := capture(t, with([]string{row.cmd}, row.base...)...)
			written := false
			if len(row.flag) > 1 && strings.HasPrefix(row.flag[1], tmp) {
				st, err := os.Stat(row.flag[1])
				written = err == nil && st.Size() > 0
			}
			if withOut+errText(withErr) == without+errText(withoutErr) && !written {
				t.Errorf("%s %v: %s changes nothing", row.cmd, row.base, row.flag[0])
			}
			shown[name] = true
		})
	}
	for _, c := range commands {
		f, _ := c.flags()
		f.VisitAll(func(fl *flag.Flag) {
			if name := c.name + " -" + fl.Name; !shown[name] && exempt[name] == "" {
				t.Errorf("%s has no scenario row", name)
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// docLine matches an ampsinf command line in the docs once continuation
// lines are joined: the subcommand and its flags, up to a comment, a
// closing backquote or a shell '&'.
var docLine = regexp.MustCompile("(?:go run \\./cmd/ampsinf|\\./ampsinf-smoke) ([^`#&\n]*)")

// TestDocCommandLinesParse collects every ampsinf command line in
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
			args := strings.Fields(m[1])
			if err := parse(t, args[0], args[1:]); err != nil {
				t.Errorf("%s: ampsinf %s: %v", doc, m[1], err)
			}
			n++
		}
	}
	if n < 12 {
		t.Errorf("found %d ampsinf command lines in the docs, want at least 12", n)
	}
}
