// Package cli is the flag layer the commands share. Each flag is
// registered together with the rules it obeys — the range its value must
// lie in and the setting it acts only with — so the registration line is
// the one place a flag's rules live: Parse checks them and -h prints
// them. A flag the command would ignore or misread is an error that
// names it (and, for a dependent flag, the setting it needs).
//
// Rules a downstream Validate already enforces (a policy's own ranges,
// -shed needing -deadline) are left to it and not repeated here.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Set is a flag.FlagSet whose registrations take rules. Its methods
// shadow the FlagSet's of the same name, so no flag bypasses them.
type Set struct {
	*flag.FlagSet
	rules map[string]*Rule
}

// Rule is what a flag's registration declares: Min and Max bound its
// numeric value (±Inf when unbounded; Open makes Min exclusive), and a
// flag with an Active func acts only while it reports true, With naming
// that setting. Every float must also be finite.
type Rule struct {
	Min, Max float64
	Open     bool
	With     string
	Active   func() bool
}

// An Opt adds a rule to a flag at registration.
type Opt func(*Rule)

// Min requires a value ≥ x.
func Min(x float64) Opt { return func(r *Rule) { r.Min = x } }

// Above requires a value > x.
func Above(x float64) Opt { return func(r *Rule) { r.Min, r.Open = x, true } }

// Max requires a value ≤ x.
func Max(x float64) Opt { return func(r *Rule) { r.Max = x } }

// With makes the flag act only while active reports true; with names
// that setting in -h and in the error.
func With(with string, active func() bool) Opt {
	return func(r *Rule) { r.With, r.Active = with, active }
}

// New returns an empty set for the command name (e.g. "ampsinf serve").
func New(name string) *Set {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s [flags]\n", name)
		fs.PrintDefaults()
	}
	return &Set{FlagSet: fs, rules: map[string]*Rule{}}
}

// Rule returns the rules registered with the flag name.
func (s *Set) Rule(name string) Rule { return *s.rules[name] }

// add records name's rules and returns its usage text with them
// appended.
func (s *Set) add(name, usage string, opts []Opt) string {
	r := &Rule{Min: math.Inf(-1), Max: math.Inf(1)}
	for _, o := range opts {
		o(r)
	}
	s.rules[name] = r
	var says []string
	if b := r.bounds(); b != "" {
		says = append(says, b)
	}
	if r.Active != nil {
		says = append(says, "only with "+r.With)
	}
	if len(says) == 0 {
		return usage
	}
	return usage + " [" + strings.Join(says, "; ") + "]"
}

// bounds says the range a value must lie in, or "" when it has none.
func (r *Rule) bounds() string {
	var b []string
	if r.Open {
		b = append(b, "> "+num(r.Min))
	} else if r.Min > math.Inf(-1) {
		b = append(b, "≥ "+num(r.Min))
	}
	if r.Max < math.Inf(1) {
		b = append(b, "≤ "+num(r.Max))
	}
	return strings.Join(b, " and ")
}

func num(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// Int registers an int flag.
func (s *Set) Int(name string, value int, usage string, opts ...Opt) *int {
	return s.FlagSet.Int(name, value, s.add(name, usage, opts))
}

// Int64 registers an int64 flag.
func (s *Set) Int64(name string, value int64, usage string, opts ...Opt) *int64 {
	return s.FlagSet.Int64(name, value, s.add(name, usage, opts))
}

// Float64 registers a float64 flag.
func (s *Set) Float64(name string, value float64, usage string, opts ...Opt) *float64 {
	return s.FlagSet.Float64(name, value, s.add(name, usage, opts))
}

// Duration registers a time.Duration flag; its bounds are in
// nanoseconds.
func (s *Set) Duration(name string, value time.Duration, usage string, opts ...Opt) *time.Duration {
	return s.FlagSet.Duration(name, value, s.add(name, usage, opts))
}

// Bool registers a bool flag.
func (s *Set) Bool(name string, value bool, usage string, opts ...Opt) *bool {
	return s.FlagSet.Bool(name, value, s.add(name, usage, opts))
}

// String registers a string flag.
func (s *Set) String(name string, value string, usage string, opts ...Opt) *string {
	return s.FlagSet.String(name, value, s.add(name, usage, opts))
}

// Parse parses args and checks every flag they set against its rules.
// Positional arguments are an error: no command takes any. Errors are
// returned, not printed; -h prints the flags.
func (s *Set) Parse(args []string) error {
	out := s.Output()
	s.SetOutput(io.Discard)
	err := s.FlagSet.Parse(args)
	s.SetOutput(out)
	if errors.Is(err, flag.ErrHelp) {
		s.Usage()
	}
	if err != nil {
		return err
	}
	if s.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", s.Arg(0))
	}
	s.Visit(func(f *flag.Flag) {
		if err == nil {
			err = s.rules[f.Name].check(f)
		}
	})
	return err
}

func (r *Rule) check(f *flag.Flag) error {
	var x float64
	switch v := f.Value.(flag.Getter).Get().(type) {
	case int:
		x = float64(v)
	case int64:
		x = float64(v)
	case time.Duration:
		x = float64(v)
	case float64:
		x = v
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("-%s %v: not a finite number", f.Name, f.Value)
		}
	}
	if x < r.Min || r.Open && x == r.Min || x > r.Max {
		return fmt.Errorf("-%s %v: out of range (%s)", f.Name, f.Value, r.bounds())
	}
	if r.Active != nil && !r.Active() {
		return fmt.Errorf("-%s acts only with %s", f.Name, r.With)
	}
	return nil
}
