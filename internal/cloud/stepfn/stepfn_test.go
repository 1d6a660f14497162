package stepfn

import (
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/obs"
	"ampsinf/internal/perf"
)

func setup() (*Engine, *lambda.Platform, *billing.Meter) {
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	return NewEngine(pl, meter), pl, meter
}

func appendHandler(tag string) lambda.Handler {
	return func(ctx *lambda.Context, payload []byte) ([]byte, error) {
		ctx.Advance("work", 100*time.Millisecond)
		return append(payload, []byte(tag)...), nil
	}
}

func TestRunChainsStates(t *testing.T) {
	eng, pl, meter := setup()
	mx := obs.NewMetrics()
	eng.Metrics = mx
	for _, name := range []string{"a", "b", "c"} {
		if err := pl.CreateFunction(lambda.FunctionConfig{Name: name, MemoryMB: 512, Handler: appendHandler(name)}); err != nil {
			t.Fatal(err)
		}
	}
	m := Machine{Name: "wf", States: []State{
		{Name: "s1", FunctionName: "a"},
		{Name: "s2", FunctionName: "b"},
		{Name: "s3", FunctionName: "c"},
	}}
	exec, err := eng.Run(m, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(exec.Output) != "xabc" {
		t.Fatalf("output %q", exec.Output)
	}
	if exec.Transitions != 4 { // 3 states + terminal
		t.Fatalf("transitions %d", exec.Transitions)
	}
	wantTrans := 4 * pricing.StepFnTransitionDelay
	if exec.TransitionTime != wantTrans {
		t.Fatalf("transition time %v, want %v", exec.TransitionTime, wantTrans)
	}
	if exec.Duration <= exec.TransitionTime {
		t.Fatal("duration must include invocations")
	}
	if meter.Category("stepfn:transitions") != 4*pricing.StepFnTransition {
		t.Fatal("transition fees not metered")
	}
	if got := mx.Snapshot().Counters["stepfn_transitions_total"]; got != 4 {
		t.Fatalf("stepfn_transitions_total = %d, want 4", got)
	}
}

// The paper's footnote 2: a ten-state workflow spends ≈15 s in state
// transitions alone.
func TestTenStateTransitionOverheadMatchesFootnote(t *testing.T) {
	eng, pl, _ := setup()
	states := make([]State, 10)
	for i := range states {
		name := string(rune('a' + i))
		pl.CreateFunction(lambda.FunctionConfig{Name: name, MemoryMB: 512, Handler: appendHandler("")})
		states[i] = State{Name: name, FunctionName: name}
	}
	exec, err := eng.Run(Machine{Name: "ten", States: states}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sec := exec.TransitionTime.Seconds()
	if sec < 14 || sec > 18 {
		t.Fatalf("10-state transition overhead %.1fs, paper ≈15s", sec)
	}
}

func TestRunEmptyMachine(t *testing.T) {
	eng, _, _ := setup()
	if _, err := eng.Run(Machine{Name: "empty"}, nil); err == nil {
		t.Fatal("empty machine accepted")
	}
}

func TestRunPropagatesStateFailure(t *testing.T) {
	eng, pl, _ := setup()
	pl.CreateFunction(lambda.FunctionConfig{Name: "ok", MemoryMB: 512, Handler: appendHandler("o")})
	m := Machine{Name: "wf", States: []State{
		{Name: "s1", FunctionName: "ok"},
		{Name: "s2", FunctionName: "missing"},
	}}
	_, err := eng.Run(m, nil)
	if err == nil || !strings.Contains(err.Error(), "s2") {
		t.Fatalf("missing function not surfaced: %v", err)
	}
}
