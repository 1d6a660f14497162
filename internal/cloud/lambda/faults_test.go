package lambda

import (
	"errors"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/perf"
)

// injectorFor builds an injector that deterministically injects `kind`
// on every invocation.
func injectorFor(kind faults.Kind) *faults.Injector {
	cfg := faults.Config{Seed: 1}
	switch kind {
	case faults.Throttle:
		cfg.InvokeThrottle = 1
	case faults.Crash:
		cfg.InvokeCrash = 1
	case faults.Timeout:
		cfg.InvokeTimeout = 1
	}
	return faults.New(cfg)
}

func TestInjectedThrottleBillsNothing(t *testing.T) {
	pl, meter := newPlatform()
	pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler})
	pl.Invoke("f", nil, InvokeOptions{}) // warm the container first
	*meter = billing.Meter{}

	pl.SetInjector(injectorFor(faults.Throttle))
	res, err := pl.Invoke("f", nil, InvokeOptions{})
	if err == nil {
		t.Fatal("throttled invocation succeeded")
	}
	if !faults.IsTransient(err) {
		t.Fatalf("throttle error not transient: %v", err)
	}
	if res != nil {
		t.Fatal("throttle returned a result")
	}
	if meter.Total() != 0 {
		t.Fatalf("throttle billed $%v; a 429 assigns no container", meter.Total())
	}

	// The warm container must survive a throttle: clear the injector and
	// the next invocation is warm.
	pl.SetInjector(nil)
	res2, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ColdStart {
		t.Fatal("throttle discarded the warm container")
	}
}

func TestInjectedCrashBillsWorkAndDiscardsContainer(t *testing.T) {
	pl, meter := newPlatform()
	pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 1024, Handler: echoHandler})
	pl.SetInjector(injectorFor(faults.Crash))

	res, err := pl.Invoke("f", nil, InvokeOptions{})
	if err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected transient crash, got %v", err)
	}
	if res == nil || res.InjectedFault != "crash" {
		t.Fatalf("result %+v", res)
	}
	if res.Response != nil {
		t.Fatal("crashed invocation returned a response")
	}
	// The work ran before the crash, so the full duration bills.
	p := perf.Default()
	want := p.ColdStartBase + p.InvokeOverhead + 200*time.Millisecond
	if res.Duration != want {
		t.Fatalf("crash billed %v, want %v", res.Duration, want)
	}
	if meter.Breakdown()["lambda:invocations"] != pricing.LambdaInvocation {
		t.Fatal("crash skipped the invocation fee")
	}
	if meter.Breakdown()["lambda:execution"] == 0 {
		t.Fatal("crash billed no execution: faults must cost money")
	}

	// The crashed container is discarded — the retry cold-starts again.
	pl.SetInjector(nil)
	res2, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ColdStart {
		t.Fatal("retry after crash reused the discarded container")
	}
}

func TestInjectedTimeoutBillsHangCapped(t *testing.T) {
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler})
	pl.SetInjector(injectorFor(faults.Timeout))

	res, err := pl.Invoke("f", nil, InvokeOptions{})
	if err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected transient timeout, got %v", err)
	}
	if res.InjectedFault != "timeout" {
		t.Fatalf("fault %q", res.InjectedFault)
	}
	// Default hang factor 1: billed lifetime = 2× the work.
	p := perf.Default()
	work := p.ColdStartBase + p.InvokeOverhead + 200*time.Millisecond
	if res.Duration != 2*work {
		t.Fatalf("timeout billed %v, want %v", res.Duration, 2*work)
	}

	// The hang is capped at the function timeout: the clean run (930ms)
	// fits a 1s timeout, but the doubled hang does not.
	pl2, _ := newPlatform()
	pl2.CreateFunction(FunctionConfig{Name: "g", MemoryMB: 512, Timeout: time.Second, Handler: echoHandler})
	pl2.SetInjector(injectorFor(faults.Timeout))
	res2, err := pl2.Invoke("g", nil, InvokeOptions{})
	if err == nil {
		t.Fatal("expected timeout fault")
	}
	if res2.Duration != time.Second {
		t.Fatalf("hang billed %v, want the 1s timeout cap", res2.Duration)
	}
}

func TestInjectedFaultsDeterministic(t *testing.T) {
	run := func() []string {
		pl, _ := newPlatform()
		pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler})
		pl.SetInjector(faults.New(faults.Uniform(0.4, 77)))
		var kinds []string
		for i := 0; i < 200; i++ {
			res, err := pl.Invoke("f", nil, InvokeOptions{})
			switch {
			case err == nil:
				kinds = append(kinds, "ok")
			case res == nil:
				kinds = append(kinds, "throttle")
			default:
				kinds = append(kinds, res.InjectedFault)
			}
		}
		return kinds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("invocation %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestHandlerErrorPreemptsInjectedFault(t *testing.T) {
	// A handler that fails on its own must surface its own error, not a
	// stacked injected fault.
	pl, _ := newPlatform()
	pl.CreateFunction(FunctionConfig{
		Name: "bug", MemoryMB: 512,
		Handler: func(ctx *Context, _ []byte) ([]byte, error) {
			ctx.advance("work", 50*time.Millisecond)
			return nil, errors.New("deterministic handler bug")
		},
	})
	pl.SetInjector(injectorFor(faults.Crash))
	_, err := pl.Invoke("bug", nil, InvokeOptions{})
	if err == nil || faults.IsTransient(err) {
		t.Fatalf("handler's own error masked by injected fault: %v", err)
	}
}
