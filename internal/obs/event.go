package obs

import "time"

// EventCounter counts one kind of event in both sinks: the run-total
// registry and the windowed series, under one name. Counters against
// nil sinks are no-ops, so no call site needs a guard.
type EventCounter struct {
	mx CounterHandle
	ts SeriesCounterHandle
}

// NewEventCounter resolves name in both registries.
func NewEventCounter(mx *Metrics, ts *TimeSeries, name string) EventCounter {
	return EventCounter{mx: mx.CounterHandle(name), ts: ts.CounterHandle(name)}
}

// Inc counts n events at simulated instant at.
func (e EventCounter) Inc(at time.Duration, n int64) {
	e.mx.Inc(n)
	e.ts.Inc(at, n)
}

// IncEvent is the registry half of e.Inc inside a write section.
func (w MetricsWriter) IncEvent(e EventCounter, n int64) { w.Inc(e.mx, n) }

// IncEvent is the series half of e.Inc inside a write section.
func (w SeriesWriter) IncEvent(e EventCounter, at time.Duration, n int64) { w.Inc(e.ts, at, n) }

// InWindow returns the series half's count in flushed window i.
func (e EventCounter) InWindow(i int) int64 { return e.ts.InWindow(i) }
