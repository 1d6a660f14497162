package redis

import (
	"bytes"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/s3"
)

func newStore() (*Store, *billing.Meter) {
	m := &billing.Meter{}
	return New(m), m
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newStore()
	if _, err := s.Put("k", []byte("activations")); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("k")
	if err != nil || !bytes.Equal(got, []byte("activations")) {
		t.Fatalf("get = %q, %v", got, err)
	}
	got[0] = 'X'
	again, _, _ := s.Get("k")
	if again[0] != 'a' {
		t.Fatal("Get aliases stored data")
	}
	if _, _, err := s.Get("missing"); err == nil {
		t.Fatal("missing key returned")
	}
	if n, ok := s.Head("k"); !ok || n != 11 {
		t.Fatalf("head = %d, %v", n, ok)
	}
	s.Delete("k")
	s.Delete("k")
	if _, ok := s.Head("k"); ok {
		t.Fatal("key survived delete")
	}
}

// The whole point: a cache round-trip is far faster than S3's.
func TestFasterThanS3(t *testing.T) {
	meter := &billing.Meter{}
	r := New(meter)
	obj := s3.New(s3.DefaultConfig(), meter)
	const n = 8 << 20
	if r.TransferTime(n) >= obj.TransferTime(n) {
		t.Fatalf("redis transfer %v not faster than s3 %v", r.TransferTime(n), obj.TransferTime(n))
	}
	if r.TransferTime(-1) != requestLatency {
		t.Fatal("negative size not clamped")
	}
}

// The flip side: holding data costs instance-hours, not per-GB-seconds.
func TestInstanceBilling(t *testing.T) {
	s, meter := newStore()
	s.ChargeStorage(0, time.Hour) // instance runs even while empty
	want := hourlyUSD
	got := meter.Breakdown()["redis:instance"]
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("hour of cache = $%v, want $%v", got, want)
	}
	s.ChargeStorage(1<<30, -time.Second) // no refunds
	if meter.Breakdown()["redis:instance"] != got {
		t.Fatal("negative duration charged")
	}
	// Requests themselves are free (no s3-style fees).
	if meter.Total() != got {
		t.Fatalf("unexpected extra charges: %v", meter.Breakdown())
	}
}
