package lambda

import (
	"math/rand"
	"testing"
	"time"
)

// scanInFlight is the reference in-flight count: a full pool scan at t,
// ignoring the O(1) busy counter entirely.
func (pl *Platform) scanInFlight(t time.Duration) int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := 0
	for _, fn := range pl.fns {
		for _, c := range fn.pool {
			if c.busyUntil > t {
				n++
			}
		}
	}
	return n
}

// checkBusy asserts the O(1) counter agrees with the scan at the
// current clock reading.
func checkBusy(t *testing.T, pl *Platform, step int, op string) {
	t.Helper()
	now := pl.Now()
	if got, want := pl.InFlightAt(now), pl.scanInFlight(now); got != want {
		t.Fatalf("step %d (%s): busy counter %d, scan %d at %v", step, op, got, want, now)
	}
}

// TestBusyCounterMatchesScan drives a randomized mix of every operation
// that can move a container between idle and busy — invocations (with
// crash/timeout faults discarding containers), clock advances, busy-
// window extensions, warm resets and concurrency flips — asserting
// after each that the O(1) in-flight counter equals the reference scan.
func TestBusyCounterMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		pl, _ := newPlatform()
		pl.EnableClock()
		names := []string{"a", "b", "c"}
		for _, n := range names {
			if err := pl.CreateFunction(FunctionConfig{Name: n, MemoryMB: 512, Handler: echoHandler}); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var lastID int
		var lastFn string
		for step := 0; step < 600; step++ {
			op := rng.Intn(10)
			switch {
			case op < 4: // invoke (acquire + finish)
				name := names[rng.Intn(len(names))]
				res, err := pl.Invoke(name, nil, InvokeOptions{})
				if err != nil {
					t.Fatalf("step %d: invoke: %v", step, err)
				}
				lastID, lastFn = res.ContainerID, name
				checkBusy(t, pl, step, "invoke")
			case op < 7: // advance the clock a random amount
				pl.AdvanceTo(pl.Now() + time.Duration(rng.Intn(500))*time.Millisecond)
				checkBusy(t, pl, step, "advance")
			case op < 8: // extend the last container's busy window
				if lastFn != "" {
					pl.OccupyUntil(lastFn, lastID, pl.Now()+time.Duration(rng.Intn(2000))*time.Millisecond)
					checkBusy(t, pl, step, "occupy")
				}
			case op < 9: // reset one function's idle warm pool
				pl.ResetWarm(names[rng.Intn(len(names))])
				checkBusy(t, pl, step, "reset")
			default: // discard the last container (crash reap path)
				if lastFn != "" {
					pl.mu.Lock()
					pl.releaseLocked(pl.fns[lastFn], lastID, 0, true)
					pl.mu.Unlock()
					lastFn = ""
					checkBusy(t, pl, step, "discard")
				}
			}
		}
		// Drain: far-future advance must return the counter to zero.
		pl.AdvanceTo(pl.Now() + time.Hour)
		checkBusy(t, pl, -1, "drain")
		if got := pl.InFlightAt(pl.Now()); got != 0 {
			t.Fatalf("seed %d: %d containers still counted busy after drain", seed, got)
		}
	}
}

// TestEnableClockRebuildsCounter: enabling the clock on a platform that
// already served unclocked traffic derives the counter from existing
// pool state instead of starting from a stale zero.
func TestEnableClockRebuildsCounter(t *testing.T) {
	pl, _ := newPlatform()
	if err := pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: echoHandler}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Invoke("f", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	pl.EnableClock() // after the fact: container busy window may be live
	checkBusy(t, pl, 0, "enable")
	pl.AdvanceTo(pl.Now() + time.Hour)
	checkBusy(t, pl, 1, "enable+drain")
	// Idempotent re-enable mid-run.
	if _, err := pl.Invoke("f", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	pl.EnableClock()
	checkBusy(t, pl, 2, "re-enable")
}

// TestDeleteFunctionReleasesInFlight: a deleted function's busy
// containers leave the in-flight count with it — the O(1) counter (read
// at the clock) and the scan (read off it) agree before the delete,
// after it, and after the old busy window would have expired.
func TestDeleteFunctionReleasesInFlight(t *testing.T) {
	pl, _ := newPlatform()
	pl.EnableClock()
	slow := func(ctx *Context, _ []byte) ([]byte, error) {
		ctx.advance("work", 10*time.Second)
		return nil, nil
	}
	if err := pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: slow}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Invoke("f", nil, InvokeOptions{}); err != nil {
		t.Fatal(err)
	}
	both := func(when string, want int) {
		t.Helper()
		now := pl.Now()
		if counter, scan := pl.InFlightAt(now), pl.InFlightAt(now+1); counter != want || scan != want {
			t.Fatalf("%s: counter %d, scan %d, want %d", when, counter, scan, want)
		}
	}
	both("before delete", 1)
	pl.DeleteFunction("f")
	both("after delete", 0)
	pl.AdvanceTo(time.Second)
	both("one second on", 0)
	pl.AdvanceTo(time.Minute) // past the deleted container's window: its expiry event is stale
	both("after the old window", 0)
}
