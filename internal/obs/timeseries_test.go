package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func TestTimeSeriesWindowing(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.CounterHandle("reqs_total").Inc(100*time.Millisecond, 1)
	ts.CounterHandle("reqs_total").Inc(900*time.Millisecond, 2)
	ts.TotalHandle("cost_usd_total").Add(500*time.Millisecond, 0.25)
	ts.GaugeHandle("queue_depth").Set(200*time.Millisecond, 7)
	ts.GaugeHandle("queue_depth").Set(800*time.Millisecond, 3) // last write wins
	ts.HistHandle("latency_seconds").Observe(600*time.Millisecond, 0.5)
	ts.CounterHandle("reqs_total").Inc(1500*time.Millisecond, 5) // next window

	// Nothing flushed yet: the first window is still open.
	ts.Advance(time.Second - 1)
	if got := ts.Frames(); len(got) != 0 {
		t.Fatalf("flushed %d frames before the window closed", len(got))
	}
	ts.Advance(time.Second)
	frames := ts.Frames()
	if len(frames) != 1 {
		t.Fatalf("want 1 flushed frame, got %d", len(frames))
	}
	f := frames[0]
	if f.Index != 0 || f.Start != 0 || f.End != 1 {
		t.Fatalf("frame bounds wrong: %+v", f)
	}
	if f.Counters["reqs_total"] != 3 {
		t.Fatalf("counter = %d, want 3", f.Counters["reqs_total"])
	}
	if f.Totals["cost_usd_total"] != 0.25 {
		t.Fatalf("total = %v", f.Totals["cost_usd_total"])
	}
	if f.Gauges["queue_depth"] != 3 {
		t.Fatalf("gauge = %v, want last-write 3", f.Gauges["queue_depth"])
	}
	h := f.Hists["latency_seconds"]
	if h == nil || h.Count != 1 || h.Sum != 0.5 || h.Min != 0.5 || h.Max != 0.5 {
		t.Fatalf("hist frame wrong: %+v", h)
	}

	ts.Close()
	frames = ts.Frames()
	if len(frames) != 2 {
		t.Fatalf("want 2 frames after Close, got %d", len(frames))
	}
	if frames[1].Index != 1 || frames[1].Counters["reqs_total"] != 5 {
		t.Fatalf("second frame wrong: %+v", frames[1])
	}
}

// Empty windows cost nothing: a series that only saw activity in
// windows 0 and 5 emits exactly two frames.
func TestTimeSeriesSkipsEmptyWindows(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.CounterHandle("a").Inc(0, 1)
	ts.CounterHandle("a").Inc(5*time.Second+time.Millisecond, 1)
	ts.Close()
	frames := ts.Frames()
	if len(frames) != 2 || frames[0].Index != 0 || frames[1].Index != 5 {
		t.Fatalf("frames = %+v", frames)
	}
}

// A recording below the flush point must not vanish: it is clamped into
// the oldest still-open window.
func TestTimeSeriesLateRecordingClamped(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Advance(3 * time.Second) // windows 0-2 are gone
	ts.CounterHandle("late_total").Inc(500*time.Millisecond, 1)
	ts.Close()
	frames := ts.Frames()
	if len(frames) != 1 || frames[0].Index != 3 || frames[0].Counters["late_total"] != 1 {
		t.Fatalf("late recording lost or misfiled: %+v", frames)
	}
}

// Two identical recording sequences must serialize to byte-identical
// NDJSON — the property the serving stream golden rests on.
func TestTimeSeriesNDJSONDeterministic(t *testing.T) {
	build := func() *TimeSeries {
		ts := NewTimeSeries(250 * time.Millisecond)
		for i := 0; i < 40; i++ {
			at := time.Duration(i) * 70 * time.Millisecond
			ts.CounterHandle("reqs_total").Inc(at, int64(i%3))
			ts.TotalHandle("cost").Add(at, float64(i)*0.001)
			ts.HistHandle("lat").Observe(at, float64(i%7)*0.01)
			ts.GaugeHandle("depth").Set(at, float64(i%5))
		}
		ts.Close()
		return ts
	}
	var a, b bytes.Buffer
	if err := build().WriteNDJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical series serialized differently")
	}
}

func TestTimeSeriesNilSafe(t *testing.T) {
	var ts *TimeSeries
	ts.CounterHandle("a").Inc(0, 1)
	ts.TotalHandle("b").Add(0, 1)
	ts.GaugeHandle("c").Set(0, 1)
	ts.HistHandle("d").Observe(0, 1)
	ts.Advance(time.Hour)
	ts.Close()
	ts.Subscribe(func(*WindowFrame) {})
	if ts.Frames() != nil || ts.Window() != 0 {
		t.Fatal("nil series not a no-op")
	}
	if err := ts.WriteNDJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// The log-linear grid must bracket every positive value within the
// bucket's binade slice: upper(idx(v)) ≥ v, within ~2/16 relative error.
func TestHistBucketRoundTrip(t *testing.T) {
	for _, v := range []float64{1e-9, 0.001, 0.42, 0.5, 1, 1.5, 2, 3.14, 10, 1e6} {
		idx := histBucketIndex(v)
		up := histBucketUpper(idx)
		if up < v {
			t.Fatalf("upper(%v) = %v < v", v, up)
		}
		if rel := (up - v) / v; rel > 2.0/histSubBuckets {
			t.Fatalf("bucket error %v for %v exceeds grid width", rel, v)
		}
	}
	if histBucketIndex(0) != zeroBucketIndex || histBucketIndex(-1) != zeroBucketIndex {
		t.Fatal("non-positive values must land in the zero bucket")
	}
	if histBucketUpper(zeroBucketIndex) != 0 {
		t.Fatal("zero bucket upper bound must render as 0")
	}
}

func TestHistFrameQuantiles(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	// 100 observations 1..100 ms: p50 ≈ 50 ms, p99 ≈ 99 ms within the
	// ~6% bucket width of the log-linear grid.
	for i := 1; i <= 100; i++ {
		ts.HistHandle("lat").Observe(0, float64(i)*0.001)
	}
	ts.Close()
	h := ts.Frames()[0].Hists["lat"]
	if h.Count != 100 || h.Min != 0.001 || h.Max != 0.1 {
		t.Fatalf("summary wrong: %+v", h)
	}
	check := func(name string, got, want float64) {
		if math.Abs(got-want)/want > 0.10 {
			t.Fatalf("%s = %v, want ≈%v", name, got, want)
		}
	}
	check("p50", h.P50, 0.050)
	check("p95", h.P95, 0.095)
	check("p99", h.P99, 0.099)
	// Bucket Le values must ascend and counts must total Count.
	var n int64
	last := math.Inf(-1)
	for _, b := range h.Buckets {
		if b.Le <= last {
			t.Fatalf("buckets not ascending: %+v", h.Buckets)
		}
		last = b.Le
		n += b.N
	}
	if n != h.Count {
		t.Fatalf("bucket counts %d ≠ count %d", n, h.Count)
	}
}

// TestTimeSeriesFlushEmitsFinalPartialWindow: a run whose last events
// land mid-window can only surface that frame through Flush (Advance
// never flushes a window the clock has not passed); the series then
// stays usable for later recordings, unlike Close.
func TestTimeSeriesFlushEmitsFinalPartialWindow(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.CounterHandle("reqs_total").Inc(200*time.Millisecond, 1)
	ts.CounterHandle("reqs_total").Inc(2300*time.Millisecond, 2) // final partial window [2s, 3s)

	// The run ends at 2.3s: Advance flushes up to the window containing
	// the makespan, silently dropping the last frame...
	ts.Advance(2300 * time.Millisecond)
	if got := len(ts.Frames()); got != 1 {
		t.Fatalf("want 1 frame after Advance(makespan), got %d", got)
	}
	// ...Flush emits it.
	ts.Flush()
	frames := ts.Frames()
	if len(frames) != 2 {
		t.Fatalf("want 2 frames after Flush, got %d", len(frames))
	}
	if frames[1].Index != 2 || frames[1].Counters["reqs_total"] != 2 {
		t.Fatalf("final partial frame wrong: %+v", frames[1])
	}

	// Flush with nothing pending is a no-op.
	ts.Flush()
	if got := len(ts.Frames()); got != 2 {
		t.Fatalf("idempotent Flush emitted extra frames: %d", got)
	}

	// The series is still open: later recordings land in their own
	// windows and flush normally.
	ts.CounterHandle("reqs_total").Inc(5500*time.Millisecond, 7)
	ts.Close()
	frames = ts.Frames()
	if len(frames) != 3 || frames[2].Index != 5 || frames[2].Counters["reqs_total"] != 7 {
		t.Fatalf("post-Flush recording lost: %+v", frames[len(frames)-1])
	}

	// Nil-safety, matching every other method.
	var nilTS *TimeSeries
	nilTS.Flush()
}

// A handle reads a flushed window as Frames shows it: a counter its
// value (0 when the window did not write it), a histogram its count and
// p99 bit for bit (0, 0 when absent), past windows with scalars and
// several histograms ahead of the one read. A nil series has no
// flushed window.
func TestHandleWindowReads(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	a, b := ts.CounterHandle("a_total"), ts.CounterHandle("b_total")
	ts.TotalHandle("cost_total").Add(0, 0.5)
	ts.GaugeHandle("depth").Set(0, 3)
	early, lat := ts.HistHandle("early_seconds"), ts.HistHandle("latency_seconds")
	for w := 0; w < 5; w++ {
		at := time.Duration(w) * time.Second
		a.Inc(at, int64(w+1))
		if w%2 == 0 {
			b.Inc(at, 7)
			early.Observe(at, 1)
		}
		for k := 0; k <= 3*w; k++ {
			lat.Observe(at, 0.01*float64(k*k+1))
		}
	}
	ts.Close()
	frames := ts.Frames()
	if n := ts.FlushedWindows(); n != 5 || len(frames) != 5 {
		t.Fatalf("%d flushed windows, %d frames; want 5", n, len(frames))
	}
	for i, f := range frames {
		if got := a.InWindow(i); got != f.Counters["a_total"] {
			t.Errorf("window %d: a_total reads %d, frame %d", i, got, f.Counters["a_total"])
		}
		if got := b.InWindow(i); got != f.Counters["b_total"] {
			t.Errorf("window %d: b_total reads %d, frame %d", i, got, f.Counters["b_total"])
		}
		for _, h := range []struct {
			name string
			h    SeriesHistHandle
		}{{"early_seconds", early}, {"latency_seconds", lat}} {
			var wantN int64
			var wantP99 float64
			if hf := f.Hists[h.name]; hf != nil {
				wantN, wantP99 = hf.Count, hf.P99
			}
			if n, p99 := h.h.InWindow(i); n != wantN || math.Float64bits(p99) != math.Float64bits(wantP99) {
				t.Errorf("window %d: %s reads (%d, %v), frame (%d, %v)", i, h.name, n, p99, wantN, wantP99)
			}
		}
	}
	if n := (*TimeSeries)(nil).FlushedWindows(); n != 0 {
		t.Fatalf("a nil series has %d flushed windows", n)
	}
}

// Typed reads are safe while another goroutine records and flushes:
// every window a reader sees flushed reads its final values.
func TestHandleWindowReadsConcurrentWithFlush(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	c, h := ts.CounterHandle("n_total"), ts.HistHandle("v_seconds")
	const windows = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w < windows; w++ {
			at := time.Duration(w) * time.Second
			c.Inc(at, int64(w+1))
			h.Observe(at, float64(w+1))
			ts.Advance(at + time.Second)
		}
	}()
	for seen := 0; seen < windows; {
		for n := ts.FlushedWindows(); seen < n; seen++ {
			if got := c.InWindow(seen); got != int64(seen+1) {
				t.Fatalf("window %d: counter reads %d, want %d", seen, got, seen+1)
			}
			if n, p99 := h.InWindow(seen); n != 1 || p99 != float64(seen+1) {
				t.Fatalf("window %d: histogram reads (%d, %v), want (1, %d)", seen, n, p99, seen+1)
			}
		}
	}
	<-done
}
