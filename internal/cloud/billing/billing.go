// Package billing provides the concurrency-safe cost meter every cloud
// simulator charges into, with per-category breakdowns so experiments can
// report where each dollar went (execution, requests, storage, instances).
package billing

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Observer sees every charge as it lands on the meter, in charge
// order. The observability layer uses it to attribute exact billing
// events to trace spans.
type Observer func(category string, amount float64)

// Meter accumulates dollar amounts by category. The zero value is ready
// to use. All methods are safe for concurrent use.
type Meter struct {
	mu         sync.Mutex
	byCategory map[string]float64
	observer   Observer
	// sorted caches the sorted category list Total sums over; it is
	// rebuilt only when a charge lands on a previously unseen category,
	// so the hot Total path never sorts. The summation order (and hence
	// the bit pattern of the float result) is identical to sorting on
	// every call.
	sorted []string
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
	if m.byCategory == nil {
		m.byCategory = make(map[string]float64)
	}
	if _, seen := m.byCategory[category]; !seen {
		m.sorted = nil
	}
	m.byCategory[category] += amount
	if m.observer != nil {
		m.observer(category, amount)
	}
}

// Total returns the sum across all categories. Categories are summed
// in sorted order so the float result is bit-for-bit reproducible —
// map iteration order must not leak into reported costs.
func (m *Meter) Total() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sorted == nil && len(m.byCategory) > 0 {
		m.sorted = make([]string, 0, len(m.byCategory))
		for k := range m.byCategory {
			m.sorted = append(m.sorted, k)
		}
		sort.Strings(m.sorted)
	}
	var t float64
	for _, k := range m.sorted {
		t += m.byCategory[k]
	}
	return t
}

// Category returns the amount charged to one category.
func (m *Meter) Category(category string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byCategory[category]
}

// Breakdown returns a copy of all category totals.
func (m *Meter) Breakdown() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.byCategory))
	for k, v := range m.byCategory {
		out[k] = v
	}
	return out
}

// Reset clears all charges.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byCategory = nil
	m.sorted = nil
}

// String renders the breakdown sorted by category name.
func (m *Meter) String() string {
	bd := m.Breakdown()
	keys := make([]string, 0, len(bd))
	for k := range bd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: $%.6f\n", k, bd[k])
	}
	fmt.Fprintf(&b, "total: $%.6f", m.Total())
	return b.String()
}
