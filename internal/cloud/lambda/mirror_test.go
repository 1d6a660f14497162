package lambda

import (
	"math/rand"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
)

// checkMirror asserts that every function's dense busyUntil mirror is
// its pool's busyUntil fields, that fnList is fns, and that InFlightAt —
// which reads the mirror, bounded by the live frontier — equals the
// pointer-chasing reference scan (scanInFlight) at instants before, at
// and after the clock.
func checkMirror(t *testing.T, pl *Platform, rng *rand.Rand, step int, op string) {
	t.Helper()
	pl.mu.Lock()
	if len(pl.fnList) != len(pl.fns) {
		t.Fatalf("step %d (%s): fnList holds %d functions, fns %d", step, op, len(pl.fnList), len(pl.fns))
	}
	for _, fn := range pl.fnList {
		if pl.fns[fn.cfg.Name] != fn {
			t.Fatalf("step %d (%s): fnList entry %q is not the registered function", step, op, fn.cfg.Name)
		}
		if len(fn.busyUntil) != len(fn.pool) || fn.live > len(fn.pool) {
			t.Fatalf("step %d (%s): %q pool %d, mirror %d, live %d", step, op, fn.cfg.Name, len(fn.pool), len(fn.busyUntil), fn.live)
		}
		for i, c := range fn.pool {
			if fn.busyUntil[i] != c.busyUntil {
				t.Fatalf("step %d (%s): %q container %d: mirror %v, container %v", step, op, fn.cfg.Name, c.id, fn.busyUntil[i], c.busyUntil)
			}
		}
	}
	pl.mu.Unlock()
	now := pl.Now()
	for _, at := range []time.Duration{0, now / 2, now - 1, now, now + 1,
		now + time.Duration(rng.Intn(3000))*time.Millisecond, now + time.Hour} {
		if got, want := pl.InFlightAt(at), pl.scanInFlight(at); got != want {
			t.Fatalf("step %d (%s): in flight at %v (clock %v): mirror %d, pointer scan %d", step, op, at, now, got, want)
		}
	}
}

// TestBusyMirrorMatchesPointerScan drives random sequences of every
// operation that touches a pool — invocations of random length under
// crash, timeout and domain-outage faults (acquire, release, discard,
// purge), clock advances, OccupyUntil, ResetWarm, direct discards and
// purges, DeleteFunction and re-creation — clocked and unclocked,
// checking the mirror after every step.
func TestBusyMirrorMatchesPointerScan(t *testing.T) {
	handler := func(ctx *Context, payload []byte) ([]byte, error) {
		ctx.Advance("work", time.Duration(payload[0])*20*time.Millisecond)
		return nil, nil
	}
	for _, clocked := range []bool{true, false} {
		for _, seed := range []int64{1, 7, 42} {
			pl, _ := newPlatform()
			fc := faults.Uniform(0.2, seed)
			fc.Domains, fc.DomainOutageEvery = 3, 4*time.Second
			pl.SetInjector(faults.New(fc))
			if clocked {
				pl.EnableClock()
				pl.SetAccountConcurrency(40)
			}
			names := []string{"a", "b", "c"}
			create := func(n string) {
				if err := pl.CreateFunction(FunctionConfig{Name: n, MemoryMB: 512, Handler: handler}); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range names {
				create(n)
			}
			rng := rand.New(rand.NewSource(seed))
			var lastID int
			var lastFn string
			invokes, purges := 0, 0
			for step := 0; step < 1500; step++ {
				name := names[rng.Intn(len(names))]
				op := ""
				switch k := rng.Intn(20); {
				case k < 9:
					op = "invoke"
					res, err := pl.Invoke(name, []byte{byte(rng.Intn(100))}, InvokeOptions{})
					if err != nil && !faults.IsTransient(err) {
						t.Fatalf("step %d: invoke: %v", step, err)
					}
					if res != nil {
						invokes++
						lastID, lastFn = res.ContainerID, name
					}
				case k < 13:
					op = "advance"
					pl.AdvanceTo(pl.Now() + time.Duration(rng.Intn(400))*time.Millisecond)
				case k < 15:
					op = "occupy"
					pl.OccupyUntil(lastFn, lastID, pl.Now()+time.Duration(rng.Intn(4000)-500)*time.Millisecond)
				case k < 16:
					op = "reset"
					pl.ResetWarm(name)
				case k < 17:
					op = "discard"
					pl.mu.Lock()
					if fn := pl.fns[name]; len(fn.pool) > 0 {
						pl.discardLocked(fn, rng.Intn(len(fn.pool)))
					}
					pl.mu.Unlock()
				case k < 18:
					op = "purge"
					pl.mu.Lock()
					pl.purgeDomainLocked(rng.Intn(3))
					pl.mu.Unlock()
					purges++
				case k < 19:
					op = "delete+create"
					pl.DeleteFunction(name)
					checkMirror(t, pl, rng, step, "delete")
					create(name)
				default:
					op = "enable"
					if clocked {
						pl.EnableClock()
					}
				}
				checkMirror(t, pl, rng, step, op)
			}
			if invokes < 300 || purges == 0 {
				t.Fatalf("clocked %v seed %d: only %d invocations ran and %d purges", clocked, seed, invokes, purges)
			}
			pl.AdvanceTo(pl.Now() + time.Hour)
			checkMirror(t, pl, rng, -1, "drain")
			if got := pl.InFlightAt(pl.Now()); clocked && got != 0 {
				t.Fatalf("seed %d: %d containers still in flight after the drain", seed, got)
			}
		}
	}
}
