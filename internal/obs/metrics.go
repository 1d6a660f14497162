package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// DurationBounds are the fixed histogram bounds (seconds) used for
// simulated latencies, spanning S3 round-trips to the 900 s platform
// timeout. Fixed bounds keep snapshots comparable across runs and
// models.
var DurationBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 900,
}

// Histogram is a fixed-bound histogram. Counts has len(Bounds)+1
// buckets: Counts[i] holds observations ≤ Bounds[i], the last bucket
// overflows.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func (h *Histogram) observe(v float64) {
	i := 0
	for i < len(h.Bounds) && v > h.Bounds[i] {
		i++
	}
	h.Counts[i]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// Metrics is a registry of counters, gauges and fixed-bound histograms
// the simulators and the coordinator update as they run. Metric names
// carry labels inline, Prometheus-style (`lambda_faults_total{kind="crash"}`),
// and snapshots marshal with sorted keys, so output is bit-for-bit
// reproducible for a deterministic run. All methods are nil-safe: a
// nil *Metrics is a valid no-op registry, so instrumentation sites
// never need a guard.
//
// Storage is slot-based: each name resolves (once) to a dense index
// into a per-kind slice, and both the string-keyed methods and the
// pre-resolved handles (CounterHandle and friends) mutate the same
// slot, so the two paths are observationally identical. A slot only
// appears in snapshots after its first recording — resolving a handle
// alone leaves no trace, matching the string-keyed behaviour where a
// metric exists only once written.
type Metrics struct {
	mu          sync.Mutex
	counterIdx  map[string]int32
	counterVals []scalarSlot[int64]
	totalIdx    map[string]int32
	totalVals   []scalarSlot[float64]
	gaugeIdx    map[string]int32
	gaugeVals   []scalarSlot[float64]
	histIdx     map[string]int32
	histVals    []histSlot
}

// scalarSlot is one named scalar metric cell. set distinguishes "never
// recorded" (absent from snapshots) from a recorded zero.
type scalarSlot[T int64 | float64] struct {
	name string
	v    T
	set  bool
}

type histSlot struct {
	name string
	h    *Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// internSlot resolves name in idx; a name seen for the first time gets
// slot next, and the caller appends that slot's storage.
func internSlot(idx *map[string]int32, name string, next int) (slot int32, fresh bool) {
	if i, ok := (*idx)[name]; ok {
		return i, false
	}
	if *idx == nil {
		*idx = make(map[string]int32)
	}
	(*idx)[name] = int32(next)
	return int32(next), true
}

func (m *Metrics) counterSlotLocked(name string) int32 {
	i, fresh := internSlot(&m.counterIdx, name, len(m.counterVals))
	if fresh {
		m.counterVals = append(m.counterVals, scalarSlot[int64]{name: name})
	}
	return i
}

func (m *Metrics) totalSlotLocked(name string) int32 {
	i, fresh := internSlot(&m.totalIdx, name, len(m.totalVals))
	if fresh {
		m.totalVals = append(m.totalVals, scalarSlot[float64]{name: name})
	}
	return i
}

func (m *Metrics) gaugeSlotLocked(name string) int32 {
	i, fresh := internSlot(&m.gaugeIdx, name, len(m.gaugeVals))
	if fresh {
		m.gaugeVals = append(m.gaugeVals, scalarSlot[float64]{name: name})
	}
	return i
}

func (m *Metrics) histSlotLocked(name string, bounds []float64) int32 {
	i, fresh := internSlot(&m.histIdx, name, len(m.histVals))
	if fresh {
		m.histVals = append(m.histVals, histSlot{name: name, h: &Histogram{
			Bounds: append([]float64(nil), bounds...),
			Counts: make([]int64, len(bounds)+1),
		}})
	}
	return i
}

// Inc adds delta to the named integer counter.
func (m *Metrics) Inc(name string, delta int64) { m.CounterHandle(name).Inc(delta) }

// Add accumulates v into the named float total (GB-seconds, dollars,
// seconds of backoff).
func (m *Metrics) Add(name string, v float64) { m.TotalHandle(name).Add(v) }

// Gauge sets the named gauge to v.
func (m *Metrics) Gauge(name string, v float64) { m.GaugeHandle(name).Set(v) }

// Observe records v into the named histogram, creating it with the
// given fixed bounds on first use (later calls reuse the original
// bounds).
func (m *Metrics) Observe(name string, bounds []float64, v float64) {
	m.HistHandle(name, bounds).Observe(v)
}

// --- pre-resolved handles ---
//
// A handle resolves a metric name to its slot once — at deploy time,
// outside the hot loop — so steady-state recording is a mutex and an
// index: no map lookup, no string hashing, no allocation. Handles from
// a nil registry are valid no-ops, mirroring the string-keyed methods.

// CounterHandle is a pre-resolved integer counter.
type CounterHandle struct {
	m    *Metrics
	slot int32
}

// CounterHandle resolves name to a counter slot.
func (m *Metrics) CounterHandle(name string) CounterHandle {
	if m == nil {
		return CounterHandle{}
	}
	m.mu.Lock()
	slot := m.counterSlotLocked(name)
	m.mu.Unlock()
	return CounterHandle{m: m, slot: slot}
}

// Inc adds delta to the counter.
func (h CounterHandle) Inc(delta int64) {
	w := h.m.Begin()
	w.Inc(h, delta)
	w.End()
}

// TotalHandle is a pre-resolved float accumulator.
type TotalHandle struct {
	m    *Metrics
	slot int32
}

// TotalHandle resolves name to a float-total slot.
func (m *Metrics) TotalHandle(name string) TotalHandle {
	if m == nil {
		return TotalHandle{}
	}
	m.mu.Lock()
	slot := m.totalSlotLocked(name)
	m.mu.Unlock()
	return TotalHandle{m: m, slot: slot}
}

// Add accumulates v into the total.
func (h TotalHandle) Add(v float64) {
	w := h.m.Begin()
	w.Add(h, v)
	w.End()
}

// GaugeHandle is a pre-resolved gauge.
type GaugeHandle struct {
	m    *Metrics
	slot int32
}

// GaugeHandle resolves name to a gauge slot.
func (m *Metrics) GaugeHandle(name string) GaugeHandle {
	if m == nil {
		return GaugeHandle{}
	}
	m.mu.Lock()
	slot := m.gaugeSlotLocked(name)
	m.mu.Unlock()
	return GaugeHandle{m: m, slot: slot}
}

// Set sets the gauge to v.
func (h GaugeHandle) Set(v float64) {
	w := h.m.Begin()
	w.Set(h, v)
	w.End()
}

// HistHandle is a pre-resolved fixed-bound histogram.
type HistHandle struct {
	m    *Metrics
	slot int32
}

// HistHandle resolves name to a histogram slot, creating the histogram
// with the given bounds if it does not exist yet (an existing
// histogram keeps its original bounds). The histogram stays absent
// from snapshots until its first observation.
func (m *Metrics) HistHandle(name string, bounds []float64) HistHandle {
	if m == nil {
		return HistHandle{}
	}
	m.mu.Lock()
	slot := m.histSlotLocked(name, bounds)
	m.mu.Unlock()
	return HistHandle{m: m, slot: slot}
}

// Observe records v into the histogram.
func (h HistHandle) Observe(v float64) {
	w := h.m.Begin()
	w.Observe(h, v)
	w.End()
}

// --- held-lock write sections ---

// MetricsWriter is a write section on one registry: Begin takes the
// registry's lock once, the writes up to End are bare updates of the
// slots the handles name, and End releases it — for sites that record
// many metrics back to back (a handle's own method is a section of one
// write). Until End the caller must not call any other method of the
// registry, nor block on a lock a holder of this one may want. A handle
// of a different registry is written under its own lock instead; a nil
// handle is a no-op, and a section on a nil registry holds nothing.
type MetricsWriter struct{ m *Metrics }

// Begin opens a write section; every Begin needs exactly one End.
func (m *Metrics) Begin() MetricsWriter {
	if m != nil {
		m.mu.Lock()
	}
	return MetricsWriter{m}
}

// End closes the section.
func (w MetricsWriter) End() {
	if w.m != nil {
		w.m.mu.Unlock()
	}
}

// Inc adds delta to the counter.
func (w MetricsWriter) Inc(h CounterHandle, delta int64) {
	if h.m != w.m {
		h.Inc(delta)
	} else if h.m != nil {
		s := &h.m.counterVals[h.slot]
		s.v += delta
		s.set = true
	}
}

// Add accumulates v into the total.
func (w MetricsWriter) Add(h TotalHandle, v float64) {
	if h.m != w.m {
		h.Add(v)
	} else if h.m != nil {
		s := &h.m.totalVals[h.slot]
		s.v += v
		s.set = true
	}
}

// Set sets the gauge to v.
func (w MetricsWriter) Set(h GaugeHandle, v float64) {
	if h.m != w.m {
		h.Set(v)
	} else if h.m != nil {
		s := &h.m.gaugeVals[h.slot]
		s.v = v
		s.set = true
	}
}

// Observe records v into the histogram.
func (w MetricsWriter) Observe(h HistHandle, v float64) {
	if h.m != w.m {
		h.Observe(v)
	} else if h.m != nil {
		h.m.histVals[h.slot].h.observe(v)
	}
}

// Snapshot is a point-in-time copy of the registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64      `json:"counters"`
	Totals     map[string]float64    `json:"totals"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]*Histogram `json:"histograms"`
}

// Snapshot copies the registry's current state. Only slots that have
// received at least one recording appear, so the snapshot is
// indistinguishable from one taken of a purely string-keyed registry.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Totals:     map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]*Histogram{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.counterVals {
		if sl := &m.counterVals[i]; sl.set {
			s.Counters[sl.name] = sl.v
		}
	}
	for i := range m.totalVals {
		if sl := &m.totalVals[i]; sl.set {
			s.Totals[sl.name] = sl.v
		}
	}
	for i := range m.gaugeVals {
		if sl := &m.gaugeVals[i]; sl.set {
			s.Gauges[sl.name] = sl.v
		}
	}
	for i := range m.histVals {
		h := m.histVals[i].h
		if h.Count == 0 {
			continue
		}
		cp := *h
		cp.Bounds = append([]float64(nil), h.Bounds...)
		cp.Counts = append([]int64(nil), h.Counts...)
		s.Histograms[m.histVals[i].name] = &cp
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. encoding/json
// marshals map keys in sorted order, so the output is bit-for-bit
// reproducible for a deterministic run.
func (m *Metrics) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
