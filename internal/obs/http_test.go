package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Subscribe's cancel func must remove exactly its own subscription and
// leave the delivery order of the rest intact.
func TestSubscribeCancel(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	var order []string
	sub := func(tag string) func(*WindowFrame) {
		return func(*WindowFrame) { order = append(order, tag) }
	}
	cancelA := ts.Subscribe(sub("a"))
	ts.Subscribe(sub("b"))
	ts.Subscribe(sub("c"))

	ts.Inc(100*time.Millisecond, "x", 1)
	ts.Flush()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("delivery order %q, want abc", got)
	}
	order = nil
	cancelA()
	cancelA() // idempotent
	ts.Inc(1200*time.Millisecond, "x", 1)
	ts.Flush()
	if got := strings.Join(order, ""); got != "bc" {
		t.Fatalf("delivery after cancel %q, want bc", got)
	}
	if c := (&TimeSeries{}).Subscribe(nil); c == nil {
		t.Fatal("nil-fn Subscribe returned nil cancel")
	}
}

// Done fires exactly when the series closes; a nil series is born done.
func TestTimeSeriesDone(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	select {
	case <-ts.Done():
		t.Fatal("open series reported done")
	default:
	}
	ts.Close()
	ts.Close() // idempotent
	select {
	case <-ts.Done():
	default:
		t.Fatal("closed series not done")
	}
	var nilTS *TimeSeries
	select {
	case <-nilTS.Done():
	default:
		t.Fatal("nil series not done")
	}
}

// /metrics/stream?follow=1 replays the flushed history, tails windows
// flushed while the response is open, and terminates — with the final
// partial window delivered — when the series closes.
func TestStreamFollowDrainsOnClose(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	st := NewServeState(nil, ts)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	ts.Inc(500*time.Millisecond, "jobs", 1) // window 0
	ts.Advance(2 * time.Second)             // flushed before the request

	resp, err := srv.Client().Get(srv.URL + "/metrics/stream?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no snapshot line: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"window":0`) {
		t.Fatalf("first line is not window 0: %s", sc.Text())
	}

	ts.Inc(2500*time.Millisecond, "jobs", 2) // window 2
	ts.Advance(3 * time.Second)
	if !sc.Scan() {
		t.Fatalf("live window never arrived: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"window":2`) {
		t.Fatalf("live line is not window 2: %s", sc.Text())
	}

	ts.Inc(3100*time.Millisecond, "jobs", 3) // partial window 3
	ts.Close()
	if !sc.Scan() {
		t.Fatalf("tail window dropped at close: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"window":3`) {
		t.Fatalf("tail line is not window 3: %s", sc.Text())
	}
	// The response must now end instead of hanging on the dead series.
	if sc.Scan() {
		t.Fatalf("stream kept going after close: %s", sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not terminate cleanly: %v", err)
	}
}

// A client that stalls on /metrics/stream?follow=1 costs the server no
// queue: the follower encodes from the series' log, so what it can hold
// is bounded by the retention cap, and every window retention evicts
// before the client reads it is counted — drops = flushed − delivered —
// in obs_stream_dropped_frames_total, which lints clean. The response
// still ends at Close.
func TestStreamFollowStalledClient(t *testing.T) {
	const windows, retain, width = 5000, 64, 48
	mx := NewMetrics()
	ts := NewTimeSeries(time.Second)
	ts.SetRetention(retain)
	srv := httptest.NewServer(NewServeState(mx, ts).Handler())
	defer srv.Close()
	// The response starts once the (empty) backlog is written, so every
	// window below is flushed after the follower subscribed.
	resp, err := srv.Client().Get(srv.URL + "/metrics/stream?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wide windows (~2 KB a line), written while nobody reads: the socket
	// buffers fill and the follower blocks mid-write.
	hs := make([]SeriesCounterHandle, width)
	for i := range hs {
		hs[i] = ts.CounterHandle(fmt.Sprintf("stalled_client_padding_%02d_total", i))
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for w := 0; w < windows; w++ {
		at := time.Duration(w) * time.Second
		for _, h := range hs {
			h.Inc(at, int64(w))
		}
		ts.Advance(at + time.Second)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	// ~10 MB of stream went by; a queue of frames would hold most of it.
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 4<<20 {
		t.Fatalf("heap grew %d B while the client stalled", grew)
	}
	ts.Close()

	delivered, last := 0, int64(-1)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var f WindowFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		if f.Index <= last || len(f.Counters) != width {
			t.Fatalf("line %d: window %d after %d, %d counters", delivered, f.Index, last, len(f.Counters))
		}
		delivered, last = delivered+1, f.Index
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	if last != windows-1 {
		t.Fatalf("stream ended at window %d, want %d", last, windows-1)
	}
	dropped := mx.Snapshot().Counters["obs_stream_dropped_frames_total"]
	t.Logf("delivered %d of %d windows, dropped %d", delivered, windows, dropped)
	if dropped == 0 || dropped != int64(windows-delivered) {
		t.Fatalf("dropped %d, flushed %d, delivered %d", dropped, windows, delivered)
	}
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, mx.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	if _, err := LintExposition(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "# TYPE obs_stream_dropped_frames_total counter\n") {
		t.Fatalf("drop counter missing from the exposition:\n%s", text)
	}
}
