package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// marshalFrames is the reference for WriteNDJSON: json.Marshal of each
// frame Frames returns, newline-terminated, up to the first frame that
// fails to marshal, and that failure.
func marshalFrames(frames []*WindowFrame) ([]byte, error) {
	var out []byte
	for _, f := range frames {
		b, err := json.Marshal(f)
		if err != nil {
			return out, err
		}
		out = append(append(out, b...), '\n')
	}
	return out, nil
}

// requireNDJSONMatchesMarshal holds the log encoder to the reference:
// the same bytes, and the same error (or none).
func requireNDJSONMatchesMarshal(t *testing.T, ts *TimeSeries) {
	t.Helper()
	want, wantErr := marshalFrames(ts.Frames())
	var got bytes.Buffer
	gotErr := ts.WriteNDJSON(&got)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("WriteNDJSON error %v, json.Marshal error %v", gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("line %d:\n got  %s\n want %s", i, g[i], w[i])
			}
		}
		t.Fatalf("WriteNDJSON wrote %d lines, json.Marshal %d", len(g)-1, len(w)-1)
	}
}

// fuzzNames carry every escape encoding/json applies to a map key:
// quote, backslash, the HTML-sensitive <>&, U+2028/U+2029, control
// bytes and invalid UTF-8 — beside an empty name. "a=plain" sorts after
// "a<b>&amp;" but before its escaped form ("a\u003cb…"), so ordering
// keys by their encoding instead of the name shows.
var fuzzNames = [...]string{"a=plain", `q"uote`, `back\slash`, "a<b>&amp;", "ls\u2028ps\u2029", "ctl\x00\x01\x1f\t\n", "bad\xff\xfe\xc0utf8", ""}

// fuzzFloats are the values a table-driven write picks from: ±0,
// denormals, both sides of the 1e-6 and 1e21 format switches, then
// values whose sums overflow or whose top bucket's bound is +Inf, then
// the non-finite values json.Marshal refuses.
var fuzzFloats = [...]float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-300,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 0.001, 0.1, 0.5, 1, 2.5, 123456.789,
	1e300, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzAccepted is how many of fuzzFloats no frame can refuse.
const fuzzAccepted = len(fuzzFloats) - 5

// fuzzInts are the counter deltas a table-driven write picks from.
var fuzzInts = [...]int64{0, 1, -1, 7, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}

// fuzzSeries replays data as series writes. Each op byte encodes: bits
// 0–1 the kind (counter, total, gauge, histogram), bit 2 a raw value
// (the next 8 bytes, little-endian) or a table pick (the next byte),
// bits 3–5 the name, bits 6–7 how far the clock moves first (in 0.7 s
// steps, so several writes share a window and windows get skipped).
// Every write is followed by an Advance to its instant; Close flushes
// the rest.
func fuzzSeries(data []byte) *TimeSeries {
	ts := NewTimeSeries(time.Second)
	var at time.Duration
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		at += time.Duration(op>>6) * 700 * time.Millisecond
		name := fuzzNames[op>>3&7]
		var raw uint64
		var f float64
		var n int64
		switch {
		case op&4 != 0 && len(data) >= 8:
			raw, data = binary.LittleEndian.Uint64(data), data[8:]
			f, n = math.Float64frombits(raw), int64(raw)
		case len(data) > 0:
			f, n = fuzzFloats[int(data[0])%len(fuzzFloats)], fuzzInts[int(data[0])%len(fuzzInts)]
			data = data[1:]
		}
		switch op & 3 {
		case 0:
			ts.CounterHandle(name).Inc(at, n)
		case 1:
			ts.TotalHandle(name).Add(at, f)
		case 2:
			ts.GaugeHandle(name).Set(at, f)
		case 3:
			ts.HistHandle(name).Observe(at, f)
		}
		ts.Advance(at)
	}
	ts.Close()
	return ts
}

// FuzzWindowNDJSON: the log encoder's stream is json.Marshal of the
// frames the log materialises, byte for byte, or both refuse it. The
// seed corpus (testdata/fuzz/FuzzWindowNDJSON) holds the named edge
// cases and runs with every `go test`; `make fuzz` mutates it.
func FuzzWindowNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		requireNDJSONMatchesMarshal(t, fuzzSeries(data))
	})
}

// TestWindowNDJSONMatchesMarshal runs the encoder against the reference
// while a writer flushes: readers list frames and render the stream
// mid-run, unlocked, as the log grows, and every rendering and listing
// must be a prefix of the final reference — records are immutable once
// appended — while every frame a subscriber was handed at flush
// marshals to its line. Under -race this is the check that encoding
// outside the series lock reads nothing a flush writes.
func TestWindowNDJSONMatchesMarshal(t *testing.T) {
	ts := NewTimeSeries(250 * time.Millisecond)
	var delivered [][]byte
	ts.Subscribe(func(f *WindowFrame) {
		b, err := json.Marshal(f)
		if err != nil {
			t.Error(err)
		}
		delivered = append(delivered, append(b, '\n'))
	})
	// The reader keeps a rolling sample of what it rendered and listed.
	renders, listed := make([][]byte, 32), make([][]*WindowFrame, 32)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			var b bytes.Buffer
			if err := ts.WriteNDJSON(&b); err != nil {
				t.Error(err)
				return
			}
			renders[n%len(renders)], listed[n%len(listed)] = b.Bytes(), ts.Frames()
		}
	}()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		at := time.Duration(i) * 37 * time.Millisecond
		name := fuzzNames[rng.Intn(len(fuzzNames))]
		v := fuzzFloats[rng.Intn(fuzzAccepted)] // a refused frame would end every rendering
		switch rng.Intn(4) {
		case 0:
			ts.CounterHandle(name).Inc(at, fuzzInts[rng.Intn(len(fuzzInts))])
		case 1:
			ts.TotalHandle(name).Add(at, v)
		case 2:
			ts.GaugeHandle(name).Set(at, v)
		case 3:
			ts.HistHandle(name).Observe(at, v)
		}
		ts.Advance(at)
	}
	close(stop)
	wg.Wait()
	ts.Close()
	requireNDJSONMatchesMarshal(t, ts)
	all := bytes.Join(delivered, nil)
	if want, _ := marshalFrames(ts.Frames()); !bytes.Equal(all, want) {
		t.Fatal("subscriber frames do not marshal to the stream")
	}
	for i, r := range renders {
		if !bytes.HasPrefix(all, r) {
			t.Fatalf("rendering %d is not a prefix of the stream", i)
		}
		if got, _ := marshalFrames(listed[i]); !bytes.HasPrefix(all, got) {
			t.Fatalf("frame list %d is not a prefix of the stream", i)
		}
	}
}

// growWriter is an in-memory writer that records the Grow calls made on
// it.
type growWriter struct {
	bytes.Buffer
	grows []int
}

func (w *growWriter) Grow(n int) {
	w.grows = append(w.grows, n)
	w.Buffer.Grow(n)
}

// An in-memory export is sized once: a writer with Grow is grown by
// exactly the bytes then written, and a stream json.Marshal refuses is
// written as before — the lines up to the refused frame, then the error
// — without a Grow.
func TestWriteNDJSONGrowsOnce(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	for i := 0; i < 500; i++ {
		at := time.Duration(i) * 300 * time.Millisecond
		ts.CounterHandle(fuzzNames[i%len(fuzzNames)]).Inc(at, int64(i))
		ts.HistHandle("lat").Observe(at, float64(i%13)*0.01)
	}
	ts.Close()
	var w growWriter
	if err := ts.WriteNDJSON(&w); err != nil {
		t.Fatal(err)
	}
	if want, _ := marshalFrames(ts.Frames()); len(w.grows) != 1 || w.grows[0] != w.Len() || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("grows %v for %d bytes written (reference %d)", w.grows, w.Len(), len(want))
	}

	refused := NewTimeSeries(time.Second)
	refused.CounterHandle("reqs_total").Inc(0, 1)
	refused.TotalHandle("cost").Add(time.Second, math.NaN())
	refused.Close()
	want, wantErr := marshalFrames(refused.Frames())
	w = growWriter{}
	if err := refused.WriteNDJSON(&w); err == nil || err.Error() != wantErr.Error() || len(w.grows) != 0 || !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("refused stream: error %v (want %v), grows %v, wrote %q (want %q)", err, wantErr, w.grows, w.Bytes(), want)
	}
}

// Flushing allocates per arena chunk, not per window: 10 000 windows,
// each with a counter, a total, a gauge and a histogram, cost one
// allocation per chunk plus the doublings of the record slice and the
// chunk list — where a frame with its maps cost ~11 each.
func TestTimeSeriesFlushAllocsPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are only meaningful in production builds")
	}
	const windows = 10_000
	ts := NewTimeSeries(time.Second)
	c, tot, g, h := ts.CounterHandle("reqs_total"), ts.TotalHandle("cost"), ts.GaugeHandle("depth"), ts.HistHandle("lat")
	write := func(i int) {
		at := time.Duration(i) * time.Second
		c.Inc(at, 1)
		tot.Add(at, 0.25)
		g.Set(at, float64(i))
		h.Observe(at, float64(i%7)*0.01)
		h.Observe(at, 0.5)
		ts.Advance(at + time.Second)
	}
	write(0) // the first window's aggregation, histogram and chunk
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= windows; i++ {
		write(i)
	}
	runtime.ReadMemStats(&m1)
	chunks := len(ts.log.chunks)
	limit := uint64(chunks + 2*bits.Len(windows) + 4)
	if n := m1.Mallocs - m0.Mallocs; n > limit {
		t.Fatalf("%d flushes allocated %d objects over %d chunks; limit %d", windows, n, chunks, limit)
	}
	if got := len(ts.Frames()); got != windows+1 {
		t.Fatalf("%d frames, want %d", got, windows+1)
	}
}

// A frame built on read is the frame the writes describe: the same
// values through Frames and through a subscriber, including a counter
// at its extremes and a histogram's zero bucket.
func TestFramesBuiltFromLog(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	var seen *WindowFrame
	ts.Subscribe(func(f *WindowFrame) { seen = f })
	ts.CounterHandle("max").Inc(0, math.MaxInt64)
	ts.CounterHandle("min").Inc(0, math.MinInt64)
	ts.TotalHandle("t").Add(0, -0.5)
	ts.GaugeHandle("g").Set(0, 3)
	ts.HistHandle("h").Observe(0, 0)
	ts.HistHandle("h").Observe(0, -2)
	ts.HistHandle("h").Observe(0, 0.75)
	ts.Close()
	want := &WindowFrame{
		Index: 0, Start: 0, End: 1,
		Counters: map[string]int64{"max": math.MaxInt64, "min": math.MinInt64},
		Totals:   map[string]float64{"t": -0.5},
		Gauges:   map[string]float64{"g": 3},
		Hists: map[string]*HistFrame{"h": {
			Count: 3, Sum: -1.25, Min: -2, Max: 0.75, P50: 0, P95: 0.75, P99: 0.75,
			Buckets: []HistBucket{{Le: 0, N: 2}, {Le: histBucketUpper(histBucketIndex(0.75)), N: 1}},
		}},
	}
	if got := ts.Frames(); len(got) != 1 || !reflect.DeepEqual(got[0], want) || !reflect.DeepEqual(seen, want) {
		t.Fatalf("frame %+v, subscriber %+v, want %+v", got[0], seen, want)
	}
}
