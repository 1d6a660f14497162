// Package sim is the unified discrete-event core under the serving
// schedulers and the lambda platform clock: a single binary event heap
// with a deterministic (time, class, sequence) total order, slab/free-
// list allocators so steady-state event processing allocates nothing,
// a monotonic simulated clock, and generator-driven arrival sources
// that never materialize a full trace in memory.
//
// Everything here is deliberately value-oriented and dependency-free:
// an Event is 24 bytes of plain data, the heap is a flat slice, and no
// method ever allocates once capacity has been reached. That is what
// lets a million-request Poisson trace run through the serving
// scheduler in seconds while staying byte-identical across runs (the
// determinism argument is spelled out in DESIGN.md §14).
package sim

import "time"

// Event is one scheduled occurrence on the simulated timeline. Events
// are ordered by (At, Class, Seq): time first, then class priority
// (lower classes win ties so e.g. stage completions settle before new
// admissions at the same instant), then an insertion sequence that
// makes the order total — two events never compare equal, so heap pop
// order is fully deterministic regardless of insertion order.
//
// ID is an opaque payload handle (typically a Slab slot) that does not
// participate in the ordering.
type Event struct {
	// At is the simulated instant the event fires.
	At time.Duration
	// Seq is the deterministic tie-breaker of last resort (admission
	// order, request index, …). It must be unique within a Class at one
	// instant for the order to be total.
	Seq uint64
	// ID is a caller-defined payload handle; not part of the order.
	ID int32
	// Class is the priority band at equal instants (lower fires first).
	Class uint8
}

// Before reports whether e fires strictly before o in the
// (At, Class, Seq) total order.
func (e Event) Before(o Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.Class != o.Class {
		return e.Class < o.Class
	}
	return e.Seq < o.Seq
}

// Heap is a binary min-heap of events under the (At, Class, Seq)
// order. The zero value is an empty heap ready for use. Push reuses
// the slice's capacity, so once a heap has grown to a run's peak
// population, steady-state push/pop cycles allocate nothing.
type Heap struct {
	ev []Event
}

// Len returns the number of queued events.
func (h *Heap) Len() int { return len(h.ev) }

// Grow pre-sizes the heap's backing slice for at least n events.
func (h *Heap) Grow(n int) {
	if cap(h.ev) < n {
		ev := make([]Event, len(h.ev), n)
		copy(ev, h.ev)
		h.ev = ev
	}
}

// Reset empties the heap, keeping its capacity for reuse.
func (h *Heap) Reset() { h.ev = h.ev[:0] }

// Push inserts an event.
func (h *Heap) Push(e Event) {
	h.ev = append(h.ev, e)
	// Sift up.
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ev[i].Before(h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// Peek returns the earliest event without removing it.
func (h *Heap) Peek() (Event, bool) {
	if len(h.ev) == 0 {
		return Event{}, false
	}
	return h.ev[0], true
}

// Pop removes and returns the earliest event.
func (h *Heap) Pop() (Event, bool) {
	n := len(h.ev)
	if n == 0 {
		return Event{}, false
	}
	top := h.ev[0]
	n--
	h.ev[0] = h.ev[n]
	h.ev = h.ev[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h.ev[r].Before(h.ev[l]) {
			min = r
		}
		if !h.ev[min].Before(h.ev[i]) {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
	return top, true
}

// Clock is the monotonic simulated clock the event loops share: it
// only moves forward, and only when a popped event says so. The zero
// value reads time zero.
type Clock struct {
	now time.Duration
}

// Now returns the current simulated instant.
func (c *Clock) Now() time.Duration { return c.now }

// AdvanceTo moves the clock forward to t; earlier instants are ignored
// (the clock never retreats). It reports whether the clock moved.
func (c *Clock) AdvanceTo(t time.Duration) bool {
	if t > c.now {
		c.now = t
		return true
	}
	return false
}
