package lambda

import (
	"fmt"
	"maps"

	"ampsinf/internal/obs"
)

// platformHandles caches pre-resolved telemetry handles for the
// installed metrics registry and time-series stream, so steady-state
// invocations neither format label strings nor resolve names through
// the registries' maps. A published value is immutable: SetMetrics and
// SetSeries publish a fresh one (handles are nil-safe: with nothing
// installed every recording call is a no-op), and a phase name or fault
// kind seen for the first time publishes a copy with one more table
// entry, under pl.mu. Readers load the pointer and read without a lock.
type platformHandles struct {
	mx *obs.Metrics    // the registries every handle below belongs to
	ts *obs.TimeSeries // (what Invoke opens its write sections on)

	invocations obs.CounterHandle           // lambda_invocations_total
	coldStarts  obs.CounterHandle           // lambda_cold_starts_total
	gbSeconds   obs.TotalHandle             // lambda_gb_seconds_total
	throttles   obs.EventCounter            // lambda_throttles_total{reason="concurrency"}
	faults      map[string]obs.EventCounter // lambda_faults_total{kind=...}
	phaseMx     map[string]obs.HistHandle   // lambda_phase_seconds{phase=...}
	tsInflight  obs.SeriesGaugeHandle       // lambda_inflight
}

// fnHandles caches the per-function time-series handles whose labels
// embed the function name, formatted once at registration.
type fnHandles struct {
	invocations obs.SeriesCounterHandle // lambda_invocations_total{function=...}
	coldStarts  obs.SeriesCounterHandle // lambda_cold_starts_total{function=...}
	invokeSec   obs.SeriesHistHandle    // lambda_invoke_seconds{function=...}
	poolSize    obs.SeriesGaugeHandle   // lambda_pool_size{function=...}
}

func newFnHandles(ts *obs.TimeSeries, name string) *fnHandles {
	return &fnHandles{
		invocations: ts.CounterHandle(fmt.Sprintf("lambda_invocations_total{function=%q}", name)),
		coldStarts:  ts.CounterHandle(fmt.Sprintf("lambda_cold_starts_total{function=%q}", name)),
		invokeSec:   ts.HistHandle(fmt.Sprintf("lambda_invoke_seconds{function=%q}", name)),
		poolSize:    ts.GaugeHandle(fmt.Sprintf("lambda_pool_size{function=%q}", name)),
	}
}

func (pl *Platform) rebuildHandlesLocked() {
	mx, ts := pl.mx, pl.series
	pl.h.Store(&platformHandles{
		mx:          mx,
		ts:          ts,
		invocations: mx.CounterHandle("lambda_invocations_total"),
		coldStarts:  mx.CounterHandle("lambda_cold_starts_total"),
		gbSeconds:   mx.TotalHandle("lambda_gb_seconds_total"),
		throttles:   obs.NewEventCounter(mx, ts, `lambda_throttles_total{reason="concurrency"}`),
		tsInflight:  ts.GaugeHandle("lambda_inflight"),
	})
	for _, fn := range pl.fnList {
		fn.h = newFnHandles(ts, fn.cfg.Name)
	}
}

// faultCounter returns the counter for one fault kind from seen, the
// table the caller loaded; a kind it lacks is resolved and published.
func (pl *Platform) faultCounter(seen *platformHandles, kind string) obs.EventCounter {
	if f, ok := seen.faults[kind]; ok {
		return f
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	cur := pl.h.Load()
	f, ok := cur.faults[kind]
	if !ok {
		f = obs.NewEventCounter(pl.mx, pl.series, fmt.Sprintf("lambda_faults_total{kind=%q}", kind))
		next := *cur
		next.faults = withEntry(cur.faults, kind, f)
		pl.h.Store(&next)
	}
	return f
}

// phaseHist is faultCounter for one phase name's latency histogram.
func (pl *Platform) phaseHist(seen *platformHandles, name string) obs.HistHandle {
	if ph, ok := seen.phaseMx[name]; ok {
		return ph
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	cur := pl.h.Load()
	ph, ok := cur.phaseMx[name]
	if !ok {
		ph = pl.mx.HistHandle(fmt.Sprintf("lambda_phase_seconds{phase=%q}", name))
		next := *cur
		next.phaseMx = withEntry(cur.phaseMx, name, ph)
		pl.h.Store(&next)
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
