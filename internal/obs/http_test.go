package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
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

	ts.CounterHandle("x").Inc(100*time.Millisecond, 1)
	ts.Flush()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("delivery order %q, want abc", got)
	}
	order = nil
	cancelA()
	cancelA() // idempotent
	ts.CounterHandle("x").Inc(1200*time.Millisecond, 1)
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

	ts.CounterHandle("jobs").Inc(500*time.Millisecond, 1) // window 0
	ts.Advance(2 * time.Second)                           // flushed before the request

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

	ts.CounterHandle("jobs").Inc(2500*time.Millisecond, 2) // window 2
	ts.Advance(3 * time.Second)
	if !sc.Scan() {
		t.Fatalf("live window never arrived: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"window":2`) {
		t.Fatalf("live line is not window 2: %s", sc.Text())
	}

	ts.CounterHandle("jobs").Inc(3100*time.Millisecond, 3) // partial window 3
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
// queue and misses no window: the follower encodes from the series'
// log, which keeps every window, so the stalled client still receives
// the whole stream, byte-equal to WriteNDJSON, and the response ends at
// Close. Meanwhile the heap grows by the log's packed records and not
// by the frames or lines a queue would hold.
func TestStreamFollowStalledClient(t *testing.T) {
	const windows, width = 5000, 48
	ts := NewTimeSeries(time.Second)
	srv := httptest.NewServer(NewServeState(nil, ts).Handler())
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
	ts.Close()

	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}
	var want bytes.Buffer
	if err := ts.WriteNDJSON(&want); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte("\n")); !bytes.Equal(got, want.Bytes()) || n != windows {
		t.Fatalf("stalled follower got %d lines (%d B), want all %d windows (%d B) byte-equal to WriteNDJSON", n, len(got), windows, want.Len())
	}
	logBytes := int64(cap(ts.log.recs)) * int64(unsafe.Sizeof(winRec{}))
	for _, c := range ts.log.chunks {
		logBytes += int64(len(c)) * 8
	}
	grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	t.Logf("heap grew %d B, the log is %d B, %d B streamed", grew, logBytes, len(got))
	if grew > logBytes+1<<20 {
		t.Fatalf("heap grew %d B while the client stalled, the log is %d B", grew, logBytes)
	}
}
