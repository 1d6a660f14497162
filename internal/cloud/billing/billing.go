// Package billing provides the concurrency-safe cost meter every cloud
// simulator charges into, with per-category breakdowns so experiments can
// report where each dollar went (execution, requests, storage, instances).
package billing

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Observer sees every charge as it lands on the meter, in charge
// order. The observability layer uses it to attribute exact billing
// events to trace spans.
type Observer func(category string, amount float64)

// Meter accumulates dollar amounts by category. The zero value is ready
// to use. All methods are safe for concurrent use.
//
// Categories live in two parallel slices kept sorted by name: the
// simulators charge into a handful of constant categories, so finding
// one is a short scan (equal constants compare by pointer) and Total is
// a slice sum in sorted order — no hashing and no sorting on the
// per-request path, and the bit pattern of the float result is that of
// sorting the categories on every call.
type Meter struct {
	mu       sync.Mutex
	names    []string  // ascending
	amounts  []float64 // amounts[i] is what names[i] was charged
	observer Observer
}

// SetObserver installs (or, with nil, removes) the charge observer. The
// observer is called synchronously under the meter's lock, so it sees
// charges in the exact order they accumulated; it must not call back
// into the meter.
func (m *Meter) SetObserver(obs Observer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observer = obs
}

// slotLocked finds category's slot, or -1.
func (m *Meter) slotLocked(category string) int {
	for i, n := range m.names {
		if n == category {
			return i
		}
	}
	return -1
}

// Add charges amount dollars to the category. Negative amounts panic:
// simulated clouds never issue refunds, so a negative charge is a bug.
// So do NaN and ±Inf, which would make Total — and every per-job meter
// delta after it — NaN for the life of the meter.
func (m *Meter) Add(category string, amount float64) {
	if !(amount >= 0 && amount <= math.MaxFloat64) {
		panic(fmt.Sprintf("billing: negative or non-finite charge %f to %q", amount, category))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i := m.slotLocked(category)
	if i < 0 {
		i, _ = slices.BinarySearch(m.names, category)
		m.names = slices.Insert(m.names, i, category)
		m.amounts = slices.Insert(m.amounts, i, 0)
	}
	m.amounts[i] += amount
	if m.observer != nil {
		m.observer(category, amount)
	}
}

// Total returns the sum across all categories. Categories are summed
// in sorted order so the float result is bit-for-bit reproducible —
// charge order must not leak into reported costs.
func (m *Meter) Total() float64 {
	m.mu.Lock()
	var t float64
	for _, a := range m.amounts {
		t += a
	}
	m.mu.Unlock()
	return t
}

// Category returns the amount charged to one category.
func (m *Meter) Category(category string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.slotLocked(category); i >= 0 {
		return m.amounts[i]
	}
	return 0
}

// Breakdown returns a copy of all category totals.
func (m *Meter) Breakdown() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.names))
	for i, n := range m.names {
		out[n] = m.amounts[i]
	}
	return out
}

// Reset clears all charges.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names, m.amounts = nil, nil
}

// String renders the breakdown sorted by category name.
func (m *Meter) String() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	var t float64
	for i, n := range m.names {
		fmt.Fprintf(&b, "%s: $%.6f\n", n, m.amounts[i])
		t += m.amounts[i]
	}
	fmt.Fprintf(&b, "total: $%.6f", t)
	return b.String()
}
