package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// DurationBounds are the bounds (seconds) of every registry histogram,
// spanning S3 round-trips to the 900 s platform timeout. Fixed bounds
// keep snapshots comparable across runs and models.
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
// A metric is written through a handle (CounterHandle and friends),
// which resolves its name once to a dense per-kind slot — the layout a
// TimeSeries window uses: the scalars are cells, the histograms a slice
// filled on first observation. A slot only appears in snapshots after
// its first recording; resolving a handle alone leaves no trace.
type Metrics struct {
	mu sync.Mutex
	cells
	reg   [nKinds]slotReg
	hists []*Histogram // nil until the slot's first observation
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// slot resolves name in kind k's registry (0 from a nil registry).
func (m *Metrics) slot(k int, name string) int32 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg[k].intern(name)
}

// --- pre-resolved handles ---
//
// A handle resolves a metric name to its slot once — at deploy time,
// outside the hot loop — so steady-state recording is a mutex and an
// index: no map lookup, no string hashing, no allocation. Handles from
// a nil registry are valid no-ops.

// CounterHandle is a pre-resolved integer counter.
type CounterHandle struct {
	m    *Metrics
	slot int32
}

// CounterHandle resolves name to a counter slot.
func (m *Metrics) CounterHandle(name string) CounterHandle {
	return CounterHandle{m, m.slot(kCounter, name)}
}

// Inc adds delta to the counter.
func (h CounterHandle) Inc(delta int64) {
	w := h.m.Begin()
	w.Inc(h, delta)
	w.End()
}

// TotalHandle is a pre-resolved float accumulator (GB-seconds, dollars,
// seconds of backoff).
type TotalHandle struct {
	m    *Metrics
	slot int32
}

// TotalHandle resolves name to a float-total slot.
func (m *Metrics) TotalHandle(name string) TotalHandle {
	return TotalHandle{m, m.slot(kTotal, name)}
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
	return GaugeHandle{m, m.slot(kGauge, name)}
}

// Set sets the gauge to v.
func (h GaugeHandle) Set(v float64) {
	w := h.m.Begin()
	w.Set(h, v)
	w.End()
}

// HistHandle is a pre-resolved histogram over DurationBounds.
type HistHandle struct {
	m    *Metrics
	slot int32
}

// HistHandle resolves name to a histogram slot.
func (m *Metrics) HistHandle(name string) HistHandle {
	return HistHandle{m, m.slot(kHist, name)}
}

// Observe records v into the histogram. Non-finite values are ignored.
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
		*h.m.cell(kCounter, h.slot) += uint64(delta)
	}
}

// Add accumulates v into the total.
func (w MetricsWriter) Add(h TotalHandle, v float64) {
	if h.m != w.m {
		h.Add(v)
	} else if h.m != nil {
		addFloat(h.m.cell(kTotal, h.slot), v)
	}
}

// Set sets the gauge to v.
func (w MetricsWriter) Set(h GaugeHandle, v float64) {
	if h.m != w.m {
		h.Set(v)
	} else if h.m != nil {
		*h.m.cell(kGauge, h.slot) = math.Float64bits(v)
	}
}

// Observe records v into the histogram; non-finite values are ignored.
func (w MetricsWriter) Observe(h HistHandle, v float64) {
	if h.m != w.m {
		h.Observe(v)
	} else if h.m != nil && finite(v) {
		m := h.m
		if int(h.slot) >= len(m.hists) {
			m.hists = growSlots(m.hists, len(m.reg[kHist].names))
		}
		if m.hists[h.slot] == nil {
			m.hists[h.slot] = &Histogram{Bounds: DurationBounds, Counts: make([]int64, len(DurationBounds)+1)}
		}
		m.hists[h.slot].observe(v)
	}
}

// cell returns kind k's scalar cell for slot, marked written.
func (m *Metrics) cell(k int, slot int32) *uint64 {
	return m.cells.cell(k, slot, len(m.reg[k].names))
}

// Snapshot is a point-in-time copy of the registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64      `json:"counters"`
	Totals     map[string]float64    `json:"totals"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]*Histogram `json:"histograms"`
}

// Snapshot copies the registry's current state: every slot that has
// received at least one recording.
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
	liveCells(s.Counters, &m.cells, kCounter, m.reg[kCounter].names, func(u uint64) int64 { return int64(u) })
	liveCells(s.Totals, &m.cells, kTotal, m.reg[kTotal].names, math.Float64frombits)
	liveCells(s.Gauges, &m.cells, kGauge, m.reg[kGauge].names, math.Float64frombits)
	for slot, h := range m.hists {
		if h != nil {
			cp := *h
			cp.Bounds = append([]float64(nil), h.Bounds...)
			cp.Counts = append([]int64(nil), h.Counts...)
			s.Histograms[m.reg[kHist].names[slot]] = &cp
		}
	}
	return s
}

// liveCells copies kind k's written cells into dst under their names.
func liveCells[T int64 | float64](dst map[string]T, c *cells, k int, names []string, val func(uint64) T) {
	for slot, set := range c.set[k] {
		if set {
			dst[names[slot]] = val(c.vals[k][slot])
		}
	}
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
