package stage_test

import (
	"bytes"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/redis"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/cloud/stage"
)

// implementations returns every stage.Store the framework ships, each on
// its own meter, so the conformance suite below exercises them all
// through the interface alone.
func implementations() map[string]struct {
	store stage.Store
	meter *billing.Meter
} {
	s3m, rdm := &billing.Meter{}, &billing.Meter{}
	return map[string]struct {
		store stage.Store
		meter *billing.Meter
	}{
		"s3":    {s3.New(s3.DefaultConfig(), s3m), s3m},
		"redis": {redis.New(rdm), rdm},
	}
}

func TestStoreRoundTrip(t *testing.T) {
	for name, impl := range implementations() {
		t.Run(name, func(t *testing.T) {
			st := impl.store
			data := []byte("activation-tensor-bytes")
			putDur, err := st.Put("job/out0", data)
			if err != nil {
				t.Fatal(err)
			}
			if putDur <= 0 {
				t.Fatalf("put transfer time %v", putDur)
			}
			got, getDur, err := st.Get("job/out0")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip corrupted: %q", got)
			}
			if getDur <= 0 {
				t.Fatalf("get transfer time %v", getDur)
			}
			// The returned object is a copy: mutating it must not corrupt
			// the stored one.
			got[0] = 'X'
			again, _, err := st.Get("job/out0")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("store returned an aliased buffer")
			}
		})
	}
}

func TestStoreSizeAccounting(t *testing.T) {
	for name, impl := range implementations() {
		t.Run(name, func(t *testing.T) {
			st := impl.store
			if _, ok := st.Head("missing"); ok {
				t.Fatal("Head reported a missing key")
			}
			if _, err := st.Put("k", make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
			if n, ok := st.Head("k"); !ok || n != 1000 {
				t.Fatalf("Head = (%d, %v), want (1000, true)", n, ok)
			}
			// Overwrites replace the object and its size.
			if _, err := st.Put("k", make([]byte, 64)); err != nil {
				t.Fatal(err)
			}
			if n, ok := st.Head("k"); !ok || n != 64 {
				t.Fatalf("Head after overwrite = (%d, %v), want (64, true)", n, ok)
			}
			// Bigger objects take at least as long to move.
			small, _ := st.Put("small", make([]byte, 1))
			big, _ := st.Put("big", make([]byte, 10<<20))
			if big <= small {
				t.Fatalf("10 MB transfer (%v) not slower than 1 B (%v)", big, small)
			}
			// Zero-length objects round-trip.
			if _, err := st.Put("empty", nil); err != nil {
				t.Fatal(err)
			}
			if n, ok := st.Head("empty"); !ok || n != 0 {
				t.Fatalf("empty Head = (%d, %v)", n, ok)
			}
			if data, _, err := st.Get("empty"); err != nil || len(data) != 0 {
				t.Fatalf("empty Get = (%v, %v)", data, err)
			}
		})
	}
}

func TestStoreErrorPaths(t *testing.T) {
	for name, impl := range implementations() {
		t.Run(name, func(t *testing.T) {
			st := impl.store
			if _, _, err := st.Get("never-put"); err == nil {
				t.Fatal("Get of a missing key succeeded")
			}
			// Delete is idempotent and makes the key unreadable.
			if _, err := st.Put("k", []byte("x")); err != nil {
				t.Fatal(err)
			}
			st.Delete("k")
			st.Delete("k")
			if _, _, err := st.Get("k"); err == nil {
				t.Fatal("Get after Delete succeeded")
			}
			if _, ok := st.Head("k"); ok {
				t.Fatal("Head after Delete reported the key")
			}
			st.Delete("never-put") // deleting a missing key is a no-op
		})
	}
}

func TestStoreChargesStorage(t *testing.T) {
	for name, impl := range implementations() {
		t.Run(name, func(t *testing.T) {
			before := impl.meter.Total()
			impl.store.ChargeStorage(1<<30, time.Hour)
			if impl.meter.Total() <= before {
				t.Fatal("holding 1 GB for an hour charged nothing")
			}
			// A zero-duration hold charges nothing on any backend.
			mid := impl.meter.Total()
			impl.store.ChargeStorage(1<<30, 0)
			if impl.meter.Total() != mid {
				t.Fatal("zero-duration hold charged")
			}
		})
	}
}
