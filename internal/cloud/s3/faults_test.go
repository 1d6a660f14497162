package s3

import (
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
)

func TestInjected503NotBilled(t *testing.T) {
	s, meter := newStore()
	s.Put("k", []byte("data"))
	*meter = billing.Meter{}

	s.SetInjector(faults.New(faults.Config{Seed: 1, GetFail: 1, PutFail: 1}))
	if _, _, err := s.Get("k"); err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected transient 503 on GET, got %v", err)
	}
	if _, err := s.Put("k2", []byte("x")); err == nil || !faults.IsTransient(err) {
		t.Fatalf("expected transient 503 on PUT, got %v", err)
	}
	if meter.Total() != 0 {
		t.Fatalf("5xx requests billed $%v; AWS does not bill them", meter.Total())
	}
	if _, ok := s.Head("k2"); ok {
		t.Fatal("failed PUT stored the object")
	}
	// Only the pre-fault PUT of "k" counts; failed requests do not.
	puts, gets := s.Stats()
	if puts != 1 || gets != 0 {
		t.Fatalf("failed requests counted: %d/%d", puts, gets)
	}

	// Clearing the injector restores service: the object written before
	// the fault window is intact.
	s.SetInjector(nil)
	got, _, err := s.Get("k")
	if err != nil || string(got) != "data" {
		t.Fatalf("recovery failed: %q, %v", got, err)
	}
}

func TestInjectedSlowdownStretchesTransfer(t *testing.T) {
	s, meter := newStore()
	data := make([]byte, 10<<20)
	clean, err := s.Put("k", data)
	if err != nil {
		t.Fatal(err)
	}

	s.SetInjector(faults.New(faults.Config{Seed: 1, GetSlow: 1, PutSlow: 1}))
	slow, err := s.Put("k2", data)
	if err != nil {
		t.Fatal(err)
	}
	if slow != time.Duration(float64(clean)*faults.SlowFactor) {
		t.Fatalf("slow PUT %v, want %v × %v", slow, clean, faults.SlowFactor)
	}
	got, d, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) {
		t.Fatal("slow GET corrupted data")
	}
	if d <= s.TransferTime(int64(len(data))) {
		t.Fatalf("slow GET %v not stretched", d)
	}
	// Slow requests still succeed, so they bill normally.
	if meter.Breakdown()["s3:put"] == 0 || meter.Breakdown()["s3:get"] == 0 {
		t.Fatal("slow requests not billed")
	}
}

func TestStoreFaultsDeterministic(t *testing.T) {
	run := func() []string {
		s, _ := newStore()
		s.SetInjector(faults.New(faults.Uniform(0.4, 55)))
		var outcomes []string
		for i := 0; i < 100; i++ {
			if _, err := s.Put("k", []byte("x")); err != nil {
				outcomes = append(outcomes, "put-fail")
			} else {
				outcomes = append(outcomes, "put-ok")
			}
			if _, _, err := s.Get("k"); err != nil {
				outcomes = append(outcomes, "get-fail")
			} else {
				outcomes = append(outcomes, "get-ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged: %q vs %q", i, a[i], b[i])
		}
	}
}
