package sim

import (
	"testing"
	"time"
)

// drain materializes a source, checking Remaining counts down exactly.
func drain(t *testing.T, s Source, wantN int) []time.Duration {
	t.Helper()
	out := make([]time.Duration, 0, wantN)
	for {
		if got := s.Remaining(); got != wantN-len(out) {
			t.Fatalf("Remaining = %d after %d yields, want %d", got, len(out), wantN-len(out))
		}
		a, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	if len(out) != wantN {
		t.Fatalf("source yielded %d arrivals, want %d", len(out), wantN)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded again")
	}
	return out
}

func equalTraces(t *testing.T, name string, got, want []time.Duration) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d = %v, want %v (bit-compatibility broken)", name, i, got[i], want[i])
		}
	}
}

func TestSliceSource(t *testing.T) {
	want := []time.Duration{0, time.Second, time.Second, 3 * time.Second}
	got := drain(t, NewSlice(want), len(want))
	equalTraces(t, "slice", got, want)
	if got := drain(t, NewSlice(nil), 0); len(got) != 0 {
		t.Fatalf("nil slice yielded %d", len(got))
	}
}

func TestEmptySources(t *testing.T) {
	for name, s := range map[string]Source{
		"poisson": NewPoisson(0, 1, 1),
	} {
		if _, ok := s.Next(); ok {
			t.Fatalf("%s: empty source yielded", name)
		}
		if s.Remaining() != 0 {
			t.Fatalf("%s: Remaining = %d", name, s.Remaining())
		}
	}
}

// TestPoissonSourceStreamsLazily: a million-request source costs O(1)
// memory up front — Remaining reports the full count without any
// backing slice having been built.
func TestPoissonSourceStreamsLazily(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		s := NewPoisson(1_000_000, 100, 1)
		if s.Remaining() != 1_000_000 {
			t.Fatal("wrong count")
		}
		s.Next()
	})
	// One rng + one source struct + rng internals; the point is it is
	// constant, not O(n).
	if allocs > 16 {
		t.Fatalf("constructing a 1M source allocated %.0f objects", allocs)
	}
}
