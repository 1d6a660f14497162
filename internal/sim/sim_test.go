package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refSort is the reference total order: a plain sort under the same
// (At, Class, Seq) comparison the heap promises to pop in.
func refSort(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

func randomEvents(rng *rand.Rand, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			// Small ranges force heavy At/Class collisions so the Seq
			// tie-break actually decides most comparisons.
			At:    time.Duration(rng.Intn(8)) * time.Millisecond,
			Class: uint8(rng.Intn(3)),
			Seq:   uint64(i),
			ID:    int32(rng.Intn(1000)),
		}
	}
	return evs
}

// TestHeapPopOrderMatchesSort: for random insertion orders, pop order
// equals the reference sort — the heap realizes the documented total
// order exactly.
func TestHeapPopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		evs := randomEvents(rng, rng.Intn(60))
		var h Heap
		for _, e := range evs {
			h.Push(e)
			if !h.invariantOK() {
				t.Fatalf("trial %d: heap invariant broken after push %+v", trial, e)
			}
		}
		want := refSort(evs)
		for i, w := range want {
			got, ok := h.Pop()
			if !ok {
				t.Fatalf("trial %d: heap empty at pop %d", trial, i)
			}
			if got != w {
				t.Fatalf("trial %d pop %d: got %+v want %+v", trial, i, got, w)
			}
			if !h.invariantOK() {
				t.Fatalf("trial %d: heap invariant broken after pop %d", trial, i)
			}
		}
		if _, ok := h.Pop(); ok {
			t.Fatalf("trial %d: heap not empty after draining", trial)
		}
	}
}

// TestHeapStableReplay: pushing the same events in two different orders
// pops the identical sequence — insertion order never leaks into the
// pop order.
func TestHeapStableReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		evs := randomEvents(rng, 50)
		shuffled := append([]Event(nil), evs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var h1, h2 Heap
		for _, e := range evs {
			h1.Push(e)
		}
		for _, e := range shuffled {
			h2.Push(e)
		}
		for h1.Len() > 0 {
			a, _ := h1.Pop()
			b, _ := h2.Pop()
			if a != b {
				t.Fatalf("trial %d: replay diverged: %+v vs %+v", trial, a, b)
			}
		}
		if h2.Len() != 0 {
			t.Fatalf("trial %d: second heap not drained", trial)
		}
	}
}

// TestHeapInterleavedPushPop exercises the realistic event-loop shape:
// pops interleaved with pushes of later events, asserting the popped
// times never retreat and the invariant holds throughout.
func TestHeapInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Heap
	var last Event
	popped := 0
	for i := 0; i < 2000; i++ {
		if h.Len() == 0 || rng.Intn(3) > 0 {
			at := last.At + time.Duration(rng.Intn(5))*time.Millisecond
			h.Push(Event{At: at, Class: uint8(rng.Intn(3)), Seq: uint64(i)})
		} else {
			e, _ := h.Pop()
			// Simulated time never retreats (classes may still reorder
			// within one instant when later pushes land there).
			if popped > 0 && e.At < last.At {
				t.Fatalf("pop %d retreated: %+v before %+v", popped, e, last)
			}
			last = e
			popped++
		}
		if !h.invariantOK() {
			t.Fatalf("step %d: heap invariant broken", i)
		}
	}
}

func TestHeapPeekResetGrow(t *testing.T) {
	var h Heap
	if _, ok := h.Peek(); ok {
		t.Fatal("peek on empty heap succeeded")
	}
	h.Grow(64)
	h.Push(Event{At: 5})
	h.Push(Event{At: 3})
	if e, ok := h.Peek(); !ok || e.At != 3 {
		t.Fatalf("peek = %+v, %v; want At=3", e, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d, want 2", h.Len())
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after reset = %d", h.Len())
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop after reset succeeded")
	}
}

// TestHeapSteadyStateAllocs: once the heap has reached its peak
// population, push/pop cycles allocate nothing — the property that
// keeps the million-request loop off the garbage collector.
func TestHeapSteadyStateAllocs(t *testing.T) {
	var h Heap
	for i := 0; i < 128; i++ {
		h.Push(Event{At: time.Duration(i), Seq: uint64(i)})
	}
	seq := uint64(128)
	allocs := testing.AllocsPerRun(1000, func() {
		e, _ := h.Pop()
		e.At += 100
		e.Seq = seq
		seq++
		h.Push(e)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f per op, want 0", allocs)
	}
}

// TestSlabSteadyStateAllocs: alloc/free cycles at peak population are
// allocation-free, and handles recycle LIFO.
func TestSlabSteadyStateAllocs(t *testing.T) {
	var s Slab[[4]int64]
	ids := make([]int32, 64)
	for i := range ids {
		ids[i], _ = s.Alloc()
	}
	for _, id := range ids {
		s.Free(id)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		id, p := s.Alloc()
		p[0] = int64(id)
		s.Free(id)
	})
	if allocs != 0 {
		t.Fatalf("steady-state alloc/free allocated %.1f per op, want 0", allocs)
	}
}

func TestSlabReuse(t *testing.T) {
	var s Slab[int]
	a, pa := s.Alloc()
	*pa = 7
	b, pb := s.Alloc()
	*pb = 9
	if a == b {
		t.Fatalf("distinct allocs share handle %d", a)
	}
	if live := int(s.len) - len(s.free); live != 2 {
		t.Fatalf("live = %d, want 2", live)
	}
	s.Free(a)
	c, pc := s.Alloc()
	if c != a {
		t.Fatalf("freed handle %d not recycled (got %d)", a, c)
	}
	if *pc != 7 {
		t.Fatalf("recycled slot zeroed: got %d, want prior occupant 7", *pc)
	}
	if *s.Get(b) != 9 {
		t.Fatalf("unrelated slot clobbered: %d", *s.Get(b))
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %v", c.Now())
	}
	if !c.AdvanceTo(5 * time.Second) {
		t.Fatal("advance to 5s reported no movement")
	}
	if c.AdvanceTo(3 * time.Second) {
		t.Fatal("clock retreated")
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("now = %v, want 5s", c.Now())
	}
}

// invariantOK reports whether every parent fires no later than its
// children — the heap property under the (At, Class, Seq) order.
// O(n).
func (h *Heap) invariantOK() bool {
	for i := 1; i < len(h.ev); i++ {
		if h.ev[i].Before(h.ev[(i-1)/2]) {
			return false
		}
	}
	return true
}
