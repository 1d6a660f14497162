package s3

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/pricing"
)

func newStore() (*Store, *billing.Meter) {
	m := &billing.Meter{}
	return New(DefaultConfig(), m), m
}

func TestPutGetRoundTrip(t *testing.T) {
	s, meter := newStore()
	data := []byte("intermediate activations")
	if _, err := s.Put("k", data); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if meter.Breakdown()["s3:put"] != pricing.S3PutRequest {
		t.Fatal("PUT not charged")
	}
	if meter.Breakdown()["s3:get"] != pricing.S3GetRequest {
		t.Fatal("GET not charged")
	}
}

func TestGetIsCopy(t *testing.T) {
	s, _ := newStore()
	s.Put("k", []byte{1, 2, 3})
	a, _, _ := s.Get("k")
	a[0] = 9
	b, _, _ := s.Get("k")
	if b[0] != 1 {
		t.Fatal("Get aliases stored data")
	}
}

func TestGetMissingKey(t *testing.T) {
	s, _ := newStore()
	if _, _, err := s.Get("nope"); err == nil {
		t.Fatal("missing key returned data")
	}
}

func TestDeleteIdempotent(t *testing.T) {
	s, _ := newStore()
	s.Put("k", []byte("x"))
	s.Delete("k")
	s.Delete("k")
	if _, ok := s.Head("k"); ok {
		t.Fatal("key survived delete")
	}
}

func TestTransferTimeModel(t *testing.T) {
	s, _ := newStore()
	small := s.TransferTime(1024)
	big := s.TransferTime(100 << 20)
	if small >= big {
		t.Fatal("transfer time not increasing with size")
	}
	if small < DefaultConfig().RequestLatency {
		t.Fatal("latency floor missing")
	}
	// 60 MB at 60 MB/s ≈ 1 s + latency.
	d := s.TransferTime(60 << 20)
	if d < time.Second || d > 1200*time.Millisecond {
		t.Fatalf("60MB transfer = %v, want ≈1s", d)
	}
	if s.TransferTime(-5) != DefaultConfig().RequestLatency {
		t.Fatal("negative size not clamped")
	}
}

func TestChargeStorage(t *testing.T) {
	s, meter := newStore()
	s.ChargeStorage(1<<30, time.Hour)
	want := 1.0 * 3600 * pricing.S3StoragePerGBSecond
	got := meter.Breakdown()["s3:storage"]
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("storage charge %v, want %v", got, want)
	}
	s.ChargeStorage(-1, time.Hour) // must not panic or charge
	s.ChargeStorage(1, -time.Hour)
}

func TestFailureInjection(t *testing.T) {
	s, _ := newStore()
	s.Put("k", []byte("x"))
	s.SetInjector(faults.New(faults.Config{GetFail: 1, PutFail: 1}))
	var fe *faults.Error
	if _, err := s.Put("k2", nil); !errors.As(err, &fe) || fe.Kind != faults.Unavailable {
		t.Fatalf("PUT during outage: %v, want an Unavailable fault", err)
	}
	if _, _, err := s.Get("k"); !errors.As(err, &fe) || fe.Kind != faults.Unavailable {
		t.Fatalf("GET during outage: %v, want an Unavailable fault", err)
	}
	s.SetInjector(nil)
	if _, _, err := s.Get("k"); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := newStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				key := fmt.Sprintf("k-%d-%d", i, j)
				if _, err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				got, _, err := s.Get(key)
				if err != nil || string(got) != key {
					t.Errorf("get %s: %v", key, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	puts, gets := s.Stats()
	if puts != 800 || gets != 800 {
		t.Fatalf("stats %d/%d", puts, gets)
	}
}

func TestTotalBytes(t *testing.T) {
	s, _ := newStore()
	s.Put("a", make([]byte, 10))
	s.Put("b", make([]byte, 20))
	if s.TotalBytes() != 30 {
		t.Fatalf("total bytes %d", s.TotalBytes())
	}
}
