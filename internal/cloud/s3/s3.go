// Package s3 simulates the object store the paper uses as intermediate
// storage between partition lambdas. It stores objects in memory, meters
// request and storage charges through a billing.Meter, and reports the
// simulated transfer time of each operation from a bandwidth/latency
// model (the paper's B).
package s3

import (
	"fmt"
	"sync"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/obs"
)

// Config sets the transfer model. Zero fields take defaults.
type Config struct {
	// BandwidthMBps is the lambda↔S3 throughput (B in the paper).
	BandwidthMBps float64
	// RequestLatency is the fixed per-request round-trip latency.
	RequestLatency time.Duration
}

// DefaultConfig mirrors commonly measured Lambda↔S3 characteristics.
func DefaultConfig() Config {
	return Config{BandwidthMBps: 60, RequestLatency: 25 * time.Millisecond}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.BandwidthMBps <= 0 {
		c.BandwidthMBps = d.BandwidthMBps
	}
	if c.RequestLatency <= 0 {
		c.RequestLatency = d.RequestLatency
	}
}

// Store is a simulated S3 bucket namespace.
type Store struct {
	cfg   Config
	meter *billing.Meter

	mu      sync.Mutex
	objects map[string][]byte
	inj     *faults.Injector
	mx      *obs.Metrics

	puts, gets  int64
	storedBytes int64

	// Pre-resolved metric handles for the installed registry, rebuilt by
	// SetMetrics (nil-safe no-ops when no registry is installed).
	h storeHandles
}

type storeHandles struct {
	reqPut, reqGet     obs.CounterHandle
	bytesPut, bytesGet obs.CounterHandle
	faultUnavailable   obs.CounterHandle
	faultSlow          obs.CounterHandle
	stored             obs.GaugeHandle
	storageGBs         obs.TotalHandle
}

func newStoreHandles(mx *obs.Metrics) storeHandles {
	return storeHandles{
		reqPut:           mx.CounterHandle(`s3_requests_total{op="put"}`),
		reqGet:           mx.CounterHandle(`s3_requests_total{op="get"}`),
		bytesPut:         mx.CounterHandle(`s3_bytes_total{op="put"}`),
		bytesGet:         mx.CounterHandle(`s3_bytes_total{op="get"}`),
		faultUnavailable: mx.CounterHandle(`s3_faults_total{kind="unavailable"}`),
		faultSlow:        mx.CounterHandle(`s3_faults_total{kind="slow"}`),
		stored:           mx.GaugeHandle("s3_stored_bytes"),
		storageGBs:       mx.TotalHandle("s3_storage_gb_seconds_total"),
	}
}

// New creates a store charging into meter.
func New(cfg Config, meter *billing.Meter) *Store {
	cfg.fillDefaults()
	return &Store{cfg: cfg, meter: meter, objects: make(map[string][]byte)}
}

// TransferTime returns the simulated time to move n bytes in either
// direction, including request latency — the paper's r_i^g, which the
// planner prices on DefaultConfig.
func (c Config) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	sec := float64(n) / (c.BandwidthMBps * 1024 * 1024)
	return c.RequestLatency + time.Duration(sec*float64(time.Second))
}

// TransferTime is the store's Config.TransferTime.
func (s *Store) TransferTime(n int64) time.Duration { return s.cfg.TransferTime(n) }

// SetInjector installs (or, with nil, removes) the store's fault
// injector. GETs and PUTs consult it for 503s and slowdowns; a nil or
// zero-rate injector leaves every operation untouched.
func (s *Store) SetInjector(inj *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = inj
}

// SetMetrics installs (or, with nil, removes) the metrics registry the
// store updates as it serves requests (ops/bytes counters, stored-bytes
// gauge, storage GB-seconds).
func (s *Store) SetMetrics(mx *obs.Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mx = mx
	s.h = newStoreHandles(mx)
}

// Put stores data under key, charging one PUT request, and returns the
// simulated transfer time. The data is copied. An injected 503 fails
// the request without charging (AWS does not bill 5xx); an injected
// slowdown stretches the transfer.
func (s *Store) Put(key string, data []byte) (time.Duration, error) {
	return s.put(key, data, true)
}

// PutStable is Put without the defensive copy: the store retains the
// caller's slice, which must stay unmodified for the object's lifetime
// (see stage.StablePutter). Charges, counters and fault draws are
// identical to Put.
func (s *Store) PutStable(key string, data []byte) (time.Duration, error) {
	return s.put(key, data, false)
}

func (s *Store) put(key string, data []byte, copied bool) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fault, factor := s.inj.StoreFault("put", key)
	if fault == faults.Unavailable {
		s.h.faultUnavailable.Inc(1)
		return 0, &faults.Error{Kind: faults.Unavailable, Op: "put", Target: key}
	}
	stored := data
	if copied {
		stored = make([]byte, len(data))
		copy(stored, data)
	}
	s.storedBytes += int64(len(stored)) - int64(len(s.objects[key]))
	s.objects[key] = stored
	s.puts++
	s.meter.Add("s3:put", pricing.S3PutRequest)
	d := s.TransferTime(int64(len(data)))
	w := s.mx.Begin()
	w.Inc(s.h.reqPut, 1)
	w.Inc(s.h.bytesPut, int64(len(data)))
	w.Set(s.h.stored, float64(s.storedBytes))
	if fault == faults.Slow {
		w.Inc(s.h.faultSlow, 1)
		d = time.Duration(float64(d) * factor)
	}
	w.End()
	return d, nil
}

// Get retrieves the object at key, charging one GET request, and returns
// the data (a copy) and the simulated transfer time. Injected faults
// behave as in Put.
func (s *Store) Get(key string) ([]byte, time.Duration, error) {
	cp, _, d, err := s.get(key, true)
	return cp, d, err
}

// GetSize is Get without materializing the data: it charges, meters
// and faults exactly like Get but returns only the object's size and
// transfer time (see stage.Sizer).
func (s *Store) GetSize(key string) (int64, time.Duration, error) {
	_, n, d, err := s.get(key, false)
	return n, d, err
}

func (s *Store) get(key string, copied bool) ([]byte, int64, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fault, factor := s.inj.StoreFault("get", key)
	if fault == faults.Unavailable {
		s.h.faultUnavailable.Inc(1)
		return nil, 0, 0, &faults.Error{Kind: faults.Unavailable, Op: "get", Target: key}
	}
	data, ok := s.objects[key]
	if !ok {
		return nil, 0, 0, fmt.Errorf("s3: no such key %q", key)
	}
	s.gets++
	s.meter.Add("s3:get", pricing.S3GetRequest)
	d := s.TransferTime(int64(len(data)))
	w := s.mx.Begin()
	w.Inc(s.h.reqGet, 1)
	w.Inc(s.h.bytesGet, int64(len(data)))
	if fault == faults.Slow {
		w.Inc(s.h.faultSlow, 1)
		d = time.Duration(float64(d) * factor)
	}
	w.End()
	var cp []byte
	if copied {
		cp = make([]byte, len(data))
		copy(cp, data)
	}
	return cp, int64(len(data)), d, nil
}

// Head reports whether key exists and its size, without charging.
func (s *Store) Head(key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[key]
	return int64(len(data)), ok
}

// Delete removes key. Deleting a missing key is a no-op (S3 semantics).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.objects[key]; ok {
		s.storedBytes -= int64(len(old))
		s.h.stored.Set(float64(s.storedBytes))
		delete(s.objects, key)
	}
}

// ChargeStorage meters the storage cost of holding bytes for d — the
// q·T·H term of the paper's Eq. (3).
func (s *Store) ChargeStorage(bytes int64, d time.Duration) {
	if bytes <= 0 || d <= 0 {
		return
	}
	gb := float64(bytes) / (1 << 30)
	s.meter.Add("s3:storage", gb*d.Seconds()*pricing.S3StoragePerGBSecond)
	s.mu.Lock()
	h := s.h.storageGBs
	s.mu.Unlock()
	h.Add(gb * d.Seconds())
}

// Stats returns the request counters.
func (s *Store) Stats() (puts, gets int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.gets
}

// TotalBytes returns the summed size of all stored objects.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, d := range s.objects {
		n += int64(len(d))
	}
	return n
}
