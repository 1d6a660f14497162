package lambda

import (
	"fmt"
	"maps"
	"time"

	"ampsinf/internal/obs"
)

// platformHandles caches pre-resolved telemetry handles for the
// installed metrics registry and time-series stream, so steady-state
// invocations neither format label strings nor resolve names through
// the registries' maps. Rebuilt whenever SetMetrics or SetSeries swap
// a registry (handles are nil-safe: with nothing installed every
// recording call is a no-op). Handlers may introduce new phase names at
// runtime, so the per-phase and per-fault-kind tables grow on first
// sight — copy-on-write under pl.mu: a published map is never written
// again, and Invoke reads the copy it took under the lock without one.
type platformHandles struct {
	invocations obs.CounterHandle         // lambda_invocations_total
	coldStarts  obs.CounterHandle         // lambda_cold_starts_total
	gbSeconds   obs.TotalHandle           // lambda_gb_seconds_total
	throttles   obs.CounterHandle         // lambda_throttles_total{reason="concurrency"}
	faults      map[string]faultCounters  // lambda_faults_total{kind=...}
	phaseMx     map[string]obs.HistHandle // lambda_phase_seconds{phase=...}

	tsThrottles obs.SeriesCounterHandle // lambda_throttles_total{reason="concurrency"}
	tsInflight  obs.SeriesGaugeHandle   // lambda_inflight
}

// faultCounters is one fault kind's counter in both registries.
type faultCounters struct {
	mx obs.CounterHandle
	ts obs.SeriesCounterHandle
}

func (f faultCounters) inc(at time.Duration) {
	f.mx.Inc(1)
	f.ts.Inc(at, 1)
}

// fnHandles caches the per-function time-series handles whose labels
// embed the function name, formatted once at registration.
type fnHandles struct {
	invocations obs.SeriesCounterHandle // lambda_invocations_total{function=...}
	coldStarts  obs.SeriesCounterHandle // lambda_cold_starts_total{function=...}
	invokeSec   obs.SeriesHistHandle    // lambda_invoke_seconds{function=...}
	poolSize    obs.SeriesGaugeHandle   // lambda_pool_size{function=...}
}

func newFnHandles(ts *obs.TimeSeries, name string) fnHandles {
	return fnHandles{
		invocations: ts.CounterHandle(fmt.Sprintf("lambda_invocations_total{function=%q}", name)),
		coldStarts:  ts.CounterHandle(fmt.Sprintf("lambda_cold_starts_total{function=%q}", name)),
		invokeSec:   ts.HistHandle(fmt.Sprintf("lambda_invoke_seconds{function=%q}", name)),
		poolSize:    ts.GaugeHandle(fmt.Sprintf("lambda_pool_size{function=%q}", name)),
	}
}

func (pl *Platform) rebuildHandlesLocked() {
	mx, ts := pl.mx, pl.series
	pl.h = platformHandles{
		invocations: mx.CounterHandle("lambda_invocations_total"),
		coldStarts:  mx.CounterHandle("lambda_cold_starts_total"),
		gbSeconds:   mx.TotalHandle("lambda_gb_seconds_total"),
		throttles:   mx.CounterHandle(`lambda_throttles_total{reason="concurrency"}`),
		tsThrottles: ts.CounterHandle(`lambda_throttles_total{reason="concurrency"}`),
		tsInflight:  ts.GaugeHandle("lambda_inflight"),
	}
	for _, fn := range pl.fns {
		fn.h = newFnHandles(ts, fn.cfg.Name)
	}
}

// faultHandles returns the counters for one fault kind from seen, the
// table the caller copied out of pl.h; a kind it lacks is resolved and
// published.
func (pl *Platform) faultHandles(seen map[string]faultCounters, kind string) faultCounters {
	if f, ok := seen[kind]; ok {
		return f
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	f, ok := pl.h.faults[kind]
	if !ok {
		name := fmt.Sprintf("lambda_faults_total{kind=%q}", kind)
		f = faultCounters{mx: pl.mx.CounterHandle(name), ts: pl.series.CounterHandle(name)}
		pl.h.faults = withEntry(pl.h.faults, kind, f)
	}
	return f
}

// phaseHist is faultHandles for one phase name's latency histogram.
func (pl *Platform) phaseHist(seen map[string]obs.HistHandle, name string) obs.HistHandle {
	if ph, ok := seen[name]; ok {
		return ph
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ph, ok := pl.h.phaseMx[name]
	if !ok {
		ph = pl.mx.HistHandle(fmt.Sprintf("lambda_phase_seconds{phase=%q}", name), obs.DurationBounds)
		pl.h.phaseMx = withEntry(pl.h.phaseMx, name, ph)
	}
	return ph
}

// withEntry returns a copy of m with one more entry, leaving m — which
// concurrent invocations may be reading — untouched.
func withEntry[V any](m map[string]V, key string, v V) map[string]V {
	c := make(map[string]V, len(m)+1)
	maps.Copy(c, m)
	c[key] = v
	return c
}
