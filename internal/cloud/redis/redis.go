// Package redis simulates an ElastiCache-style in-memory staging store —
// the faster intermediate storage the paper's discussion proposes in
// place of S3. Requests have sub-millisecond latency and high bandwidth,
// but the backing cache instance bills by the hour whether or not it is
// busy, eroding serverless pay-per-use: the storage-backend ablation
// quantifies that trade.
package redis

import (
	"fmt"
	"sync"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/stage"
)

// The transfer and pricing model of a same-AZ ElastiCache node.
const (
	// bandwidthMBps is the lambda↔cache throughput.
	bandwidthMBps = 120
	// requestLatency is the per-command round trip.
	requestLatency = time.Millisecond
	// hourlyUSD is the cache instance's on-demand price
	// (cache.t3.medium ≈ $0.068/h in 2020).
	hourlyUSD = 0.068
)

// Store is a simulated cache node.
type Store struct {
	meter *billing.Meter

	mu      sync.RWMutex
	objects map[string][]byte
}

var _ stage.Store = (*Store)(nil)

// New creates a store charging into meter.
func New(meter *billing.Meter) *Store {
	return &Store{meter: meter, objects: make(map[string][]byte)}
}

// TransferTime returns the simulated time to move n bytes.
func (s *Store) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	sec := float64(n) / (bandwidthMBps * 1024 * 1024)
	return requestLatency + time.Duration(sec*float64(time.Second))
}

// Put stores data (no per-request fee: cache commands are free once the
// instance runs).
func (s *Store) Put(key string, data []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[key] = cp
	return s.TransferTime(int64(len(data))), nil
}

// Get retrieves a copy of the object.
func (s *Store) Get(key string) ([]byte, time.Duration, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[key]
	if !ok {
		return nil, 0, fmt.Errorf("redis: no such key %q", key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, s.TransferTime(int64(len(data))), nil
}

// Head reports whether key exists and its size.
func (s *Store) Head(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[key]
	return int64(len(data)), ok
}

// Delete removes key (idempotent).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
}

// ChargeStorage bills the cache instance for the holding window: unlike
// S3's per-GB-second rate, the node costs its hourly price whenever it
// must be up, regardless of how little it stores.
func (s *Store) ChargeStorage(bytes int64, d time.Duration) {
	if d <= 0 {
		return
	}
	s.meter.Add("redis:instance", hourlyUSD*d.Hours())
}
