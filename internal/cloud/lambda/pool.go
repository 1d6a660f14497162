package lambda

import (
	"slices"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/sim"
)

// container is one execution sandbox of a function. A function keeps a
// pool of them: each tracks when it finishes its current invocation on
// the simulated clock, so overlapping jobs land on separate containers
// while idle warm ones are reused.
type container struct {
	id int
	// busyUntil is the simulated-clock instant the container finishes
	// its current invocation. Containers count as busy from acquisition,
	// so in-flight accounting is conservative for pipelines whose later
	// stages begin after the job starts.
	busyUntil time.Duration
	// slot indexes the platform registry (stable for the container's
	// lifetime); counted mirrors busyUntil > now into the platform's
	// O(1) busy counter while clocked (see AdvanceTo).
	slot    int32
	counted bool
	// domain is the container's failure domain (assigned round-robin at
	// creation when the injector configures domains; 0 otherwise). A
	// domain outage reaps every container tagged with it at once.
	domain int
}

// executing marks a container whose invocation is still running; Invoke
// replaces it with the real end time once the handler returns.
const executing = time.Duration(1<<62 - 1)

// EnableClock switches the platform into clocked serving mode: container
// pools grow on demand (an invocation issued while every warm container
// is busy cold-starts a fresh one), the account concurrency limit is
// enforced with 429 throttles, and idle/busy decisions follow the
// simulated clock advanced via AdvanceTo. Without the clock the platform
// keeps its single-container-stream semantics: invocations of one
// function are assumed sequential and always reuse the warm container.
//
// Enabling (re-)derives the O(1) in-flight accounting from the registry,
// so it is idempotent and safe to call on a platform that already served
// unclocked traffic.
func (pl *Platform) EnableClock() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.clocked = true
	pl.expiry.Reset()
	pl.busy = 0
	now := pl.clock.Now()
	for _, c := range pl.registry {
		if c == nil {
			continue
		}
		c.counted = c.busyUntil == executing || c.busyUntil > now
		if c.counted {
			pl.busy++
			if c.busyUntil != executing {
				pl.expiry.Push(sim.Event{At: c.busyUntil, Seq: uint64(c.slot), ID: c.slot})
			}
		}
	}
}

// AdvanceTo moves the simulated clock forward to t (the clock never goes
// backwards; earlier instants are ignored), draining every container
// busy-window that expires on the way so the busy counter always equals
// the scan count at the new instant (every path that drops a container
// from a pool — DeleteFunction included — goes through discardLocked).
// Each drained event is O(log n) and fires at most once per (container,
// busy window), so a whole serving run spends O(total invocations · log
// pool) here instead of the former O(events · pool) rescans.
func (pl *Platform) AdvanceTo(t time.Duration) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.clock.AdvanceTo(t) {
		return
	}
	now := pl.clock.Now()
	pl.now.Store(int64(now))
	if !pl.clocked {
		return
	}
	for {
		e, ok := pl.expiry.Peek()
		if !ok || e.At > now {
			break
		}
		pl.expiry.Pop()
		c := pl.registry[e.ID]
		if c == nil || !c.counted || c.busyUntil == executing || c.busyUntil > now {
			// Stale entry: the container was discarded, already went
			// idle, was re-acquired, or had its window extended (a later
			// entry exists for the extension).
			continue
		}
		c.counted = false
		pl.busy--
	}
}

// Now returns the current simulated-clock reading. It takes no lock:
// the serving loop and the fault injector read the clock several times
// per attempt.
func (pl *Platform) Now() time.Duration {
	return time.Duration(pl.now.Load())
}

// SetAccountConcurrency overrides the account-wide concurrent-execution
// limit (0 restores the quota's default, 1,000 on the 2020 platform).
func (pl *Platform) SetAccountConcurrency(n int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.concurrency = n
}

// AccountConcurrency returns the effective concurrent-execution limit.
func (pl *Platform) AccountConcurrency() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.concurrencyLocked()
}

func (pl *Platform) concurrencyLocked() int {
	if pl.concurrency > 0 {
		return pl.concurrency
	}
	if pl.quota.AccountConcurrency > 0 {
		return pl.quota.AccountConcurrency
	}
	return pricing.LambdaAccountConcurrency
}

// InFlightAt counts the containers executing at simulated time t across
// every function — the quantity the account concurrency limit caps. At
// the current clock reading (the admission-control hot path) it is the
// O(1) busy counter; other instants (telemetry probing an invocation's
// future end) scan the functions' dense busyUntil mirrors.
func (pl *Platform) InFlightAt(t time.Duration) int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.inFlightLocked(t)
}

func (pl *Platform) inFlightLocked(t time.Duration) int {
	if pl.clocked && t == pl.clock.Now() {
		return pl.busy
	}
	n, now := 0, pl.clock.Now()
	for _, fn := range pl.fnList {
		scan := fn.busyUntil
		if t >= now {
			for fn.live > 0 && scan[fn.live-1] <= now {
				fn.live--
			}
			scan = scan[:fn.live]
		}
		for _, until := range scan {
			if until > t {
				n++
			}
		}
	}
	return n
}

// registerLocked assigns a fresh container its registry slot. Callers
// hold pl.mu.
func (pl *Platform) registerLocked(c *container) {
	c.slot = int32(len(pl.registry))
	pl.registry = append(pl.registry, c)
}

// unregisterLocked releases a discarded container's registry slot so
// stale expiry events skip it. Callers hold pl.mu.
func (pl *Platform) unregisterLocked(c *container) {
	if int(c.slot) < len(pl.registry) && pl.registry[c.slot] == c {
		pl.registry[c.slot] = nil
	}
}

// markBusyLocked flips an acquired container into the busy count.
// Callers hold pl.mu.
func (pl *Platform) markBusyLocked(c *container) {
	if pl.clocked && !c.counted {
		c.counted = true
		pl.busy++
	}
}

// settleWindowLocked registers a container's new busy-window end: if it
// is already past, the container goes idle immediately; otherwise the
// expiry heap will release it when the clock reaches until. Callers
// hold pl.mu and have set c.busyUntil = until.
func (pl *Platform) settleWindowLocked(c *container, until time.Duration) {
	if !pl.clocked {
		return
	}
	if until > pl.clock.Now() {
		if !c.counted {
			c.counted = true
			pl.busy++
		}
		pl.expiry.Push(sim.Event{At: until, Seq: uint64(c.slot), ID: c.slot})
		return
	}
	if c.counted {
		c.counted = false
		pl.busy--
	}
}

// findLocked binary-searches a function's id-sorted pool. Returns the
// container's index, or -1 when the id is no longer pooled. Callers
// hold pl.mu.
func (fn *Function) findLocked(id int) int {
	lo, hi := 0, len(fn.pool)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fn.pool[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fn.pool) && fn.pool[lo].id == id {
		return lo
	}
	return -1
}

// setBusyLocked moves pool container i's busy-window end — in the
// container, which the expiry events read by registry slot, and in the
// dense mirror. Callers hold pl.mu.
func (fn *Function) setBusyLocked(i int, until time.Duration) {
	fn.pool[i].busyUntil = until
	fn.busyUntil[i] = until
	fn.live = max(fn.live, i+1)
}

// acquireLocked hands out a container for one invocation: the
// lowest-numbered idle warm container when one exists, otherwise a fresh
// cold container — subject, in clocked mode, to the account concurrency
// limit. Callers hold pl.mu.
func (fn *Function) acquireLocked(pl *Platform) (c *container, cold, throttled bool) {
	// The pool is sorted by id (containers append in creation order and
	// discards splice in place), so the first idle container is the
	// lowest-numbered one.
	now := pl.clock.Now()
	for i, until := range fn.busyUntil {
		if !pl.clocked || until <= now {
			fn.setBusyLocked(i, executing)
			pl.markBusyLocked(fn.pool[i])
			return fn.pool[i], false, false
		}
	}
	if pl.clocked && pl.busy >= pl.concurrencyLocked() {
		return nil, false, true
	}
	c = &container{id: fn.nextID, busyUntil: executing}
	if pl.domains > 1 {
		c.domain = c.id % pl.domains
	}
	fn.nextID++
	fn.pool = append(fn.pool, c)
	fn.busyUntil = append(fn.busyUntil, executing)
	fn.live = len(fn.pool)
	pl.registerLocked(c)
	pl.markBusyLocked(c)
	return c, true, false
}

// releaseLocked ends an invocation's hold on its container: the busy
// window settles at until, or — discard — the crashed or wedged sandbox
// is reaped (the function's other containers, idle or mid-flight, are
// untouched). It reports the function's pool size afterwards. A container
// a domain outage purged meanwhile is simply gone, and so is every
// container of a function deleted meanwhile. Callers hold pl.mu.
func (pl *Platform) releaseLocked(fn *Function, id int, until time.Duration, discard bool) int {
	if i := fn.findLocked(id); i >= 0 {
		if discard {
			pl.discardLocked(fn, i)
		} else {
			fn.setBusyLocked(i, until)
			pl.settleWindowLocked(fn.pool[i], until)
		}
	}
	return len(fn.pool)
}

// OccupyUntil extends one container's busy window to an absolute
// simulated-clock instant. The coordinator uses it after settling an
// overlapped (eager) schedule, whose true per-container lifetimes —
// input-polling waits included — exceed the handler-active durations the
// platform observed.
func (pl *Platform) OccupyUntil(name string, containerID int, until time.Duration) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	fn, ok := pl.fns[name]
	if !ok {
		return
	}
	if i := fn.findLocked(containerID); i >= 0 {
		if cur := fn.busyUntil[i]; cur != executing && until > cur {
			fn.setBusyLocked(i, until)
			pl.settleWindowLocked(fn.pool[i], until)
		}
	}
}

// discardLocked splices the container at pool index i out of fn,
// keeping the busy counter and registry consistent. Callers hold pl.mu.
func (pl *Platform) discardLocked(fn *Function, i int) {
	c := fn.pool[i]
	fn.pool = slices.Delete(fn.pool, i, i+1)
	fn.busyUntil = slices.Delete(fn.busyUntil, i, i+1)
	if i < fn.live {
		fn.live--
	}
	if pl.clocked && c.counted {
		c.counted = false
		pl.busy--
	}
	pl.unregisterLocked(c)
}

// purgeDomainLocked reaps every container in the given failure domain
// across every function at once — the platform-wide blast radius of a
// domain outage. Idle and mid-flight containers alike are lost; a
// stranded invocation's releaseLocked simply finds its container gone.
// Callers hold pl.mu.
func (pl *Platform) purgeDomainLocked(domain int) {
	if pl.domains <= 1 {
		return
	}
	for _, fn := range pl.fnList {
		for i := len(fn.pool) - 1; i >= 0; i-- {
			if fn.pool[i].domain == domain {
				pl.discardLocked(fn, i)
			}
		}
	}
}
