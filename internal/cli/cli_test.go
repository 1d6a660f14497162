package cli

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
)

func newTestSet() *Set {
	s := New("tool")
	mode := s.String("mode", "a", "mode: a or b")
	s.Int("count", 1, "how many", Min(1))
	s.Float64("rate", 0, "a rate", Min(0), Max(1))
	s.Float64("factor", 10, "a factor", Above(1), With("-mode b", func() bool { return *mode == "b" }))
	s.Duration("wait", 0, "a wait", Min(0))
	s.Int64("seed", 1, "a seed")
	s.Bool("loud", false, "be loud", With("-mode b", func() bool { return *mode == "b" }))
	return s
}

// TestParseChecksRules: a value outside its range, a non-finite float, a
// dependent flag without its setting, a stray argument and a malformed
// or unknown flag each come back as an error naming it, printing
// nothing; values on the bounds, defaults and flags with their setting
// parse.
func TestParseChecksRules(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // substring; empty = must parse
	}{
		{nil, ""},
		{[]string{"-count", "1", "-rate", "0", "-wait", "0s", "-seed", "-9"}, ""},
		{[]string{"-rate", "1"}, ""},
		{[]string{"-mode", "b", "-factor", "1.5", "-loud"}, ""},
		{[]string{"-count", "0"}, "-count 0: out of range (≥ 1)"},
		{[]string{"-rate", "1.5"}, "-rate 1.5: out of range (≥ 0 and ≤ 1)"},
		{[]string{"-rate", "-0.1"}, "-rate -0.1"},
		{[]string{"-rate", "NaN"}, "-rate NaN: not a finite number"},
		{[]string{"-rate", "-Inf"}, "-rate -Inf: not a finite number"},
		{[]string{"-mode", "b", "-factor", "1"}, "-factor 1: out of range (> 1)"},
		{[]string{"-wait", "-1s"}, "-wait -1s"},
		{[]string{"-factor", "2"}, "-factor acts only with -mode b"},
		{[]string{"-loud"}, "-loud acts only with -mode b"},
		{[]string{"-mode", "a", "-loud=false"}, "-loud acts only with -mode b"},
		{[]string{"-count", "2", "extra"}, `unexpected argument "extra"`},
		{[]string{"-count", "x"}, `invalid value "x" for flag -count`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		s := newTestSet()
		var out bytes.Buffer
		s.SetOutput(&out)
		err := s.Parse(tc.args)
		if out.Len() > 0 {
			t.Errorf("%v printed %q; errors are returned, not printed", tc.args, out.String())
		}
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestHelpStatesRules: -h returns flag.ErrHelp and lists each flag with
// its range and the setting it acts with.
func TestHelpStatesRules(t *testing.T) {
	s := newTestSet()
	var out bytes.Buffer
	s.SetOutput(&out)
	if err := s.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	for _, want := range []string{
		"usage: tool [flags]",
		"how many [≥ 1] (default 1)",
		"a rate [≥ 0 and ≤ 1]",
		"a factor [> 1; only with -mode b] (default 10)",
		"be loud [only with -mode b]",
		"mode: a or b (default \"a\")",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-h output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRuleReportsRegistration: Rule hands back what the registration
// declared, its Active func live on the set's parsed values.
func TestRuleReportsRegistration(t *testing.T) {
	s := newTestSet()
	if r := s.Rule("wait"); r.Min != 0 || r.Open || r.Active != nil {
		t.Errorf("wait: %+v", r)
	}
	r := s.Rule("factor")
	if r.Min != 1 || !r.Open || r.With != "-mode b" || r.Active() {
		t.Errorf("factor: %+v", r)
	}
	if err := s.Parse([]string{"-mode", "b"}); err != nil || !r.Active() {
		t.Errorf("factor's setting is not active after -mode b (%v)", err)
	}
}
