package lambda

import (
	"errors"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
)

// poolSize is how many containers (idle or busy) the named function
// keeps.
func poolSize(pl *Platform, name string) int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if fn, ok := pl.fns[name]; ok {
		return len(fn.pool)
	}
	return 0
}

// clockedPlatform returns a platform in clocked serving mode with one
// 512 MB echo function deployed.
func clockedPlatform(t *testing.T) *Platform {
	t.Helper()
	pl, _ := newPlatform()
	pl.EnableClock()
	if err := pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler}); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestClockedOverlapSpawnsContainers(t *testing.T) {
	pl := clockedPlatform(t)

	res1, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.ColdStart || res1.ContainerID != 0 {
		t.Fatalf("first invoke: cold=%v id=%d", res1.ColdStart, res1.ContainerID)
	}

	// The clock has not advanced, so container 0 is still busy until
	// res1.Duration: an overlapping invocation must cold-start a second
	// container instead of reusing it.
	res2, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ColdStart || res2.ContainerID != 1 {
		t.Fatalf("overlapping invoke: cold=%v id=%d, want cold on container 1", res2.ColdStart, res2.ContainerID)
	}
	if poolSize(pl, "f") != 2 {
		t.Fatalf("pool size %d, want 2", poolSize(pl, "f"))
	}
	if got := pl.InFlightAt(0); got != 2 {
		t.Fatalf("in-flight at t=0: %d, want 2", got)
	}

	// Once the clock passes both busy windows, the lowest-numbered idle
	// container is reused warm.
	pl.AdvanceTo(res1.Duration + res2.Duration)
	if got := pl.InFlightAt(pl.Now()); got != 0 {
		t.Fatalf("in-flight after drain: %d, want 0", got)
	}
	res3, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.ColdStart || res3.ContainerID != 0 {
		t.Fatalf("post-drain invoke: cold=%v id=%d, want warm on container 0", res3.ColdStart, res3.ContainerID)
	}
	if poolSize(pl, "f") != 2 {
		t.Fatalf("pool grew to %d on warm reuse", poolSize(pl, "f"))
	}
}

func TestAccountConcurrencyThrottles(t *testing.T) {
	pl := clockedPlatform(t)
	pl.SetAccountConcurrency(2)
	if pl.AccountConcurrency() != 2 {
		t.Fatalf("limit %d", pl.AccountConcurrency())
	}

	r1, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Invoke("f", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}

	invFeeBefore := pl.Meter().Total()
	_, err = pl.Invoke("f", nil, InvokeOptions{})
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != faults.Throttle {
		t.Fatalf("third overlapping invoke: %v, want 429 throttle", err)
	}
	if !faults.IsTransient(err) {
		t.Fatal("concurrency 429 should be transient (retryable)")
	}
	if pl.Meter().Total() != invFeeBefore {
		t.Fatal("throttled invocation billed something")
	}
	if poolSize(pl, "f") != 2 {
		t.Fatalf("throttle changed pool size to %d", poolSize(pl, "f"))
	}

	// After the busy windows pass, capacity frees up again.
	pl.AdvanceTo(2 * r1.Duration)
	res, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatalf("invoke after drain: %v", err)
	}
	if res.ColdStart {
		t.Fatal("post-drain invoke cold-started despite idle warm containers")
	}
}

func TestAccountConcurrencyDefault(t *testing.T) {
	pl, _ := newPlatform()
	if pl.AccountConcurrency() != 1000 {
		t.Fatalf("default limit %d, want 1000", pl.AccountConcurrency())
	}
	pl.SetAccountConcurrency(7)
	if pl.AccountConcurrency() != 7 {
		t.Fatalf("override %d", pl.AccountConcurrency())
	}
	pl.SetAccountConcurrency(0)
	if pl.AccountConcurrency() != 1000 {
		t.Fatalf("reset %d, want quota default", pl.AccountConcurrency())
	}
}

func TestUnclockedReusesSingleContainer(t *testing.T) {
	pl, _ := newPlatform()
	if err := pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler}); err != nil {
		t.Fatal(err)
	}
	// Legacy mode models sequential invocations: the warm container is
	// always reused even though the clock never advances.
	for i := 0; i < 3; i++ {
		res, err := pl.Invoke("f", nil, InvokeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.ContainerID != 0 {
			t.Fatalf("invoke %d landed on container %d", i, res.ContainerID)
		}
		if want := i == 0; res.ColdStart != want {
			t.Fatalf("invoke %d cold=%v", i, res.ColdStart)
		}
	}
	if poolSize(pl, "f") != 1 {
		t.Fatalf("pool size %d, want 1", poolSize(pl, "f"))
	}
}

func TestOccupyUntilExtendsBusyWindow(t *testing.T) {
	pl := clockedPlatform(t)
	res, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.InFlightAt(res.Duration) != 0 {
		t.Fatal("container busy past its handler end")
	}
	until := res.Duration + 5*time.Second
	pl.OccupyUntil("f", res.ContainerID, until)
	if pl.InFlightAt(until-time.Nanosecond) != 1 {
		t.Fatal("OccupyUntil did not extend the busy window")
	}
	if pl.InFlightAt(until) != 0 {
		t.Fatal("busy window extends past the requested instant")
	}
	// Shrinking is a no-op: the window only ever grows.
	pl.OccupyUntil("f", res.ContainerID, time.Millisecond)
	if pl.InFlightAt(until-time.Nanosecond) != 1 {
		t.Fatal("OccupyUntil shrank the busy window")
	}
	// Unknown containers and functions are ignored.
	pl.OccupyUntil("f", 99, until+time.Hour)
	pl.OccupyUntil("ghost", 0, until+time.Hour)
	if pl.InFlightAt(until) != 0 {
		t.Fatal("OccupyUntil on unknown target changed state")
	}
}

func TestResetWarmKeepsExecutingContainers(t *testing.T) {
	pl := clockedPlatform(t)
	res, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Container 0 is busy until res.Duration and the clock is still at
	// 0: a warm reset must not reap the mid-flight sandbox.
	pl.ResetWarm("f")
	if poolSize(pl, "f") != 1 {
		t.Fatalf("ResetWarm reaped a busy container (pool %d)", poolSize(pl, "f"))
	}
	pl.AdvanceTo(res.Duration)
	pl.ResetWarm("f")
	if poolSize(pl, "f") != 0 {
		t.Fatalf("ResetWarm kept an idle container (pool %d)", poolSize(pl, "f"))
	}
	res2, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ColdStart {
		t.Fatal("invoke after full reset should cold-start")
	}
}

func TestCrashDiscardsOnlyFaultedContainer(t *testing.T) {
	pl := clockedPlatform(t)

	// Two overlapping clean invocations fill the pool.
	if _, err := pl.Invoke("f", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	res2, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Every subsequent invocation crashes: the crashed sandbox is reaped
	// individually while the two healthy containers survive.
	pl.SetInjector(faults.New(faults.Config{Seed: 1, InvokeCrash: 1}))
	res3, err := pl.Invoke("f", nil, InvokeOptions{})
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != faults.Crash {
		t.Fatalf("expected injected crash, got %v", err)
	}
	if res3.ContainerID != 2 {
		t.Fatalf("crash landed on container %d, want the fresh container 2", res3.ContainerID)
	}
	if poolSize(pl, "f") != 2 {
		t.Fatalf("pool size %d after crash, want the 2 healthy containers", poolSize(pl, "f"))
	}
	pl.SetInjector(nil)

	// The survivors are intact: once idle they serve warm.
	pl.AdvanceTo(2 * res2.Duration)
	res4, err := pl.Invoke("f", nil, InvokeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res4.ColdStart || res4.ContainerID != 0 {
		t.Fatalf("post-crash invoke: cold=%v id=%d, want warm container 0", res4.ColdStart, res4.ContainerID)
	}
}

func TestClockMonotone(t *testing.T) {
	pl, _ := newPlatform()
	pl.EnableClock()
	pl.AdvanceTo(5 * time.Second)
	pl.AdvanceTo(2 * time.Second)
	if pl.Now() != 5*time.Second {
		t.Fatalf("clock moved backwards: %v", pl.Now())
	}
}

func TestPoolDeterminism(t *testing.T) {
	run := func() []int {
		pl, _ := newPlatform()
		pl.EnableClock()
		pl.SetAccountConcurrency(3)
		pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler})
		var ids []int
		for i := 0; i < 8; i++ {
			res, err := pl.Invoke("f", nil, InvokeOptions{})
			if err != nil {
				ids = append(ids, -1)
				pl.AdvanceTo(pl.Now() + time.Second)
				continue
			}
			ids = append(ids, res.ContainerID)
			if i%2 == 1 {
				pl.AdvanceTo(pl.Now() + 400*time.Millisecond)
			}
		}
		return ids
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at step %d: %v vs %v", i, a, b)
		}
	}
}
