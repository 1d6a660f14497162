package obs

import (
	"fmt"
	"net/http"
	"sync"
)

// ServeState bundles the live telemetry sources an HTTP exposition
// endpoint reads: the cumulative metrics registry, the windowed
// time-series stream, and a provider for the sampled span trees. The
// registry and series carry their own locks, so handlers can scrape
// mid-run; the span provider is typically installed once the run is
// over (nil provider → empty trace).
type ServeState struct {
	mu      sync.Mutex
	metrics *Metrics
	series  *TimeSeries
	spans   func() []*Span
}

// NewServeState creates a serve state over the given sources (either
// may be nil; the corresponding endpoint serves an empty document).
func NewServeState(mx *Metrics, ts *TimeSeries) *ServeState {
	return &ServeState{metrics: mx, series: ts}
}

// SetSpans installs (or replaces) the provider the /spans endpoint
// exports. fn must be safe to call from any goroutine.
func (st *ServeState) SetSpans(fn func() []*Span) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.spans = fn
}

// Handler returns the HTTP handler exposing the telemetry:
//
//	/metrics        Prometheus text exposition of the cumulative registry
//	/metrics/stream NDJSON window stream (one WindowFrame per line);
//	                ?follow=1 keeps the response open and tails new
//	                windows live until the series closes
//	/spans          sampled span trees as Chrome trace-event JSON
//	/               plain-text index of the above
func (st *ServeState) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", st.handleMetrics)
	mux.HandleFunc("/metrics/stream", st.handleStream)
	mux.HandleFunc("/spans", st.handleSpans)
	mux.HandleFunc("/", st.handleIndex)
	return mux
}

func (st *ServeState) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st.mu.Lock()
	mx := st.metrics
	st.mu.Unlock()
	if err := WritePrometheus(w, mx.Snapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (st *ServeState) handleStream(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	st.mu.Lock()
	ts := st.series
	st.mu.Unlock()
	if ts == nil {
		return
	}
	if r.URL.Query().Get("follow") == "" {
		if err := ts.WriteNDJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	st.followStream(w, r, ts)
}

// followStream serves /metrics/stream?follow=1: the flushed windows
// first, then each window as it is flushed, until the series is closed
// (the run is over and its final partial window has been delivered) or
// the client goes away. It queues nothing: a flush only wakes it, and it
// encodes from the series' log every window past the last one it wrote.
// The log keeps every window, so a slow client holds no frames and
// misses none.
func (st *ServeState) followStream(w http.ResponseWriter, r *http.Request, ts *TimeSeries) {
	wake := make(chan struct{}, 1)
	defer ts.Subscribe(func(*WindowFrame) {
		select {
		case wake <- struct{}{}:
		default:
		}
	})()

	var e frameEncoder
	next := 0 // the next window to write
	send := func() bool {
		v := ts.view(next)
		if e.write(w, &v) != nil {
			return false
		}
		next += len(v.recs)
		flush(w)
		return true
	}
	for send() {
		select {
		case <-wake:
		case <-ts.Done():
			send() // the windows Close flushed
			return
		case <-r.Context().Done():
			return
		}
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

func (st *ServeState) handleSpans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	st.mu.Lock()
	fn := st.spans
	st.mu.Unlock()
	var roots []*Span
	if fn != nil {
		roots = fn()
	}
	if err := WriteChromeTrace(w, roots); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (st *ServeState) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ampsinf telemetry\n\n"+
		"/metrics        Prometheus text exposition\n"+
		"/metrics/stream NDJSON window stream (?follow=1 tails live windows)\n"+
		"/spans          sampled Chrome trace (load in ui.perfetto.dev)\n")
}
