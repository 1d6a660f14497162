package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestMetricsSnapshotDeterministic(t *testing.T) {
	m := NewMetrics()
	m.CounterHandle(`lambda_faults_total{kind="crash"}`).Inc(2)
	m.CounterHandle("lambda_invocations_total").Inc(7)
	m.TotalHandle("lambda_gb_seconds_total").Add(1.25)
	m.GaugeHandle("s3_stored_bytes").Set(4096)
	m.HistHandle("latency_seconds").Observe(0.42)
	m.HistHandle("latency_seconds").Observe(3.0)

	var a, b bytes.Buffer
	if err := m.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two snapshots of the same registry differ")
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Fatal("snapshot must end with a newline")
	}
	var snap Snapshot
	if err := json.Unmarshal(a.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters[`lambda_faults_total{kind="crash"}`] != 2 {
		t.Fatalf("counter lost: %+v", snap.Counters)
	}
	h := snap.Histograms["latency_seconds"]
	if h == nil || h.Count != 2 || h.Min != 0.42 || h.Max != 3.0 {
		t.Fatalf("histogram wrong: %+v", h)
	}
}

func TestMetricsNilRegistryIsNoOp(t *testing.T) {
	var m *Metrics
	m.CounterHandle("x").Inc(1)
	m.TotalHandle("y").Add(2)
	m.GaugeHandle("z").Set(3)
	m.HistHandle("h").Observe(4)
	s := m.Snapshot()
	if len(s.Counters)+len(s.Totals)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	h := m.HistHandle("h")
	h.Observe(0.5)          // exactly on a bound (index 8) → that bucket
	h.Observe(0.00390625)   // 0.0025 < v ≤ 0.005 → bucket 2
	h.Observe(1024)         // past the last bound → overflow bucket
	h.Observe(0.0009765625) // below the first bound → bucket 0
	got := m.Snapshot().Histograms["h"]
	want := make([]int64, len(DurationBounds)+1)
	want[0], want[2], want[8], want[len(DurationBounds)] = 1, 1, 1, 1
	if !reflect.DeepEqual(got.Counts, want) || !reflect.DeepEqual(got.Bounds, DurationBounds) {
		t.Fatalf("bounds %v counts %v, want %v over DurationBounds", got.Bounds, got.Counts, want)
	}
	if got.Sum != 1024.5048828125 || got.Count != 4 || got.Min != 0.0009765625 || got.Max != 1024 {
		t.Fatalf("sum/count/min/max = %v/%v/%v/%v", got.Sum, got.Count, got.Min, got.Max)
	}
}

// A registry histogram ignores NaN and ±Inf, as the series does: one
// recorded NaN would sit in a bucket, make _sum NaN, and fail every
// later WriteJSON.
func TestRegistryHistogramIgnoresNonFinite(t *testing.T) {
	export := func(vs ...float64) (*Snapshot, string, string) {
		m := NewMetrics()
		h := m.HistHandle("latency_seconds")
		for _, v := range vs {
			h.Observe(v)
			w := m.Begin() // and through a write section
			w.Observe(h, v)
			w.End()
		}
		var js, prom bytes.Buffer
		if err := m.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := WritePrometheus(&prom, m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot(), js.String(), prom.String()
	}
	wantSnap, wantJSON, wantProm := export(0.5)
	gotSnap, gotJSON, gotProm := export(0.5, math.NaN(), math.Inf(1), math.Inf(-1))
	if !reflect.DeepEqual(gotSnap, wantSnap) || gotJSON != wantJSON || gotProm != wantProm {
		t.Fatalf("non-finite observations recorded:\n%s\n%s\nwant\n%s\n%s", gotJSON, gotProm, wantJSON, wantProm)
	}
}

// There is one way to write a metric, and resolving its handle is not a
// write: a resolved slot appears in no snapshot, exposition or frame
// until it is written — a non-finite observation is not a write — and a
// write of zero (a zero delta, a zero value) makes it appear, on both
// sinks.
func TestResolvedSlotLiveOnFirstWrite(t *testing.T) {
	mx, ts := NewMetrics(), NewTimeSeries(time.Second)
	// Never written: resolved first, so the written slots below sit past
	// them in the same arrays.
	for _, name := range []string{"unwritten_total", "unwritten"} {
		mx.CounterHandle(name)
		mx.TotalHandle(name)
		mx.GaugeHandle(name)
		mx.HistHandle(name)
		ts.CounterHandle(name)
		ts.TotalHandle(name)
		ts.GaugeHandle(name)
		ts.HistHandle(name)
	}
	c, tot, g, h := mx.CounterHandle("c_total"), mx.TotalHandle("t_total"), mx.GaugeHandle("g"), mx.HistHandle("h_seconds")
	sc, stot, sg, sh := ts.CounterHandle("c_total"), ts.TotalHandle("t_total"), ts.GaugeHandle("g"), ts.HistHandle("h_seconds")
	h.Observe(math.NaN())
	sh.Observe(0, math.Inf(1))
	ts.Flush()
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, mx.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if s := mx.Snapshot(); len(s.Counters)+len(s.Totals)+len(s.Gauges)+len(s.Histograms) != 0 || prom.Len() != 0 {
		t.Fatalf("unwritten slots surfaced: %+v\n%s", s, prom.String())
	}
	if f := ts.Frames(); f != nil {
		t.Fatalf("unwritten slots flushed a frame: %+v", f[0])
	}

	c.Inc(0)
	tot.Add(0)
	g.Set(0)
	h.Observe(0)
	sc.Inc(0, 0)
	stot.Add(0, 0)
	sg.Set(0, 0)
	sh.Observe(0, 0)
	ts.Close()
	counts := make([]int64, len(DurationBounds)+1)
	counts[0] = 1
	wantSnap := &Snapshot{
		Counters:   map[string]int64{"c_total": 0},
		Totals:     map[string]float64{"t_total": 0},
		Gauges:     map[string]float64{"g": 0},
		Histograms: map[string]*Histogram{"h_seconds": {Bounds: DurationBounds, Counts: counts, Count: 1}},
	}
	if got := mx.Snapshot(); !reflect.DeepEqual(got, wantSnap) {
		t.Fatalf("snapshot %+v, want %+v", got, wantSnap)
	}
	frames := ts.Frames()
	if len(frames) != 1 {
		t.Fatalf("%d frames, want 1", len(frames))
	}
	f := frames[0]
	if _, ok := f.Counters["c_total"]; !ok || len(f.Counters) != 1 || len(f.Totals) != 1 || len(f.Gauges) != 1 || len(f.Hists) != 1 || f.Hists["h_seconds"].Count != 1 {
		t.Fatalf("frame %+v, want exactly the four zero writes", f)
	}
}

func TestSumCostsMatchesMeterFold(t *testing.T) {
	// Events are attached out of charge order across spans; SumCosts
	// must replay them by Seq and fold per category, in sorted-category
	// order, exactly like billing.Meter.Total.
	root := &Span{Name: "job", Duration: time.Second}
	a := root.AddChild(&Span{Name: "a", Duration: time.Second})
	b := root.AddChild(&Span{Name: "b", Duration: time.Second})
	b.CostEvents = []CostEvent{
		{Seq: 3, Category: "lambda:execution", Amount: 0.3},
		{Seq: 1, Category: "s3:put", Amount: 0.1},
	}
	a.CostEvents = []CostEvent{
		{Seq: 2, Category: "lambda:execution", Amount: 0.2},
		{Seq: 4, Category: "s3:put", Amount: 0.4},
	}
	got := SumCosts(root)
	// Per-category accumulation in seq order, then sorted-category sum.
	want := (0.2 + 0.3) + (0.1 + 0.4)
	if got != want {
		t.Fatalf("SumCosts = %v, want %v", got, want)
	}
}

func TestValidateTree(t *testing.T) {
	ok := &Span{Name: "job", Duration: 10 * time.Second}
	ok.AddChild(&Span{Name: "x", Track: "λ0", Start: 0, Duration: 4 * time.Second})
	ok.AddChild(&Span{Name: "y", Track: "λ0", Start: 4 * time.Second, Duration: 6 * time.Second})
	// Overlap on a different track is the eager schedule: allowed.
	ok.AddChild(&Span{Name: "z", Track: "λ1", Start: 2 * time.Second, Duration: 5 * time.Second})
	if err := ValidateTree(ok); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}

	esc := &Span{Name: "job", Duration: time.Second}
	esc.AddChild(&Span{Name: "x", Start: 500 * time.Millisecond, Duration: time.Second})
	if err := ValidateTree(esc); err == nil {
		t.Fatal("child escaping its parent must be rejected")
	}

	lap := &Span{Name: "job", Duration: 10 * time.Second}
	lap.AddChild(&Span{Name: "x", Track: "λ0", Start: 0, Duration: 4 * time.Second})
	lap.AddChild(&Span{Name: "y", Track: "λ0", Start: 3 * time.Second, Duration: 4 * time.Second})
	if err := ValidateTree(lap); err == nil {
		t.Fatal("same-track sibling overlap must be rejected")
	}

	neg := &Span{Name: "job", Duration: -time.Second}
	if err := ValidateTree(neg); err == nil {
		t.Fatal("negative duration must be rejected")
	}
	if err := ValidateTree(nil); err == nil {
		t.Fatal("nil tree must be rejected")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.RecordCost("x", 1)
	tr.BeginJob()
	tr.EndJob(nil)
	if b := tr.NewBucket(); b != nil {
		t.Fatal("nil tracer must hand out nil buckets")
	}
	if prev := tr.SetSink(nil); prev != nil {
		t.Fatal("nil tracer SetSink must return nil")
	}
	if jobs := tr.Jobs(); jobs != nil {
		t.Fatal("nil tracer has no jobs")
	}
}

func TestTracerBucketsCaptureSequencedCosts(t *testing.T) {
	tr := NewTracer()
	b1 := tr.NewBucket()
	prev := tr.SetSink(b1)
	tr.RecordCost("s3:put", 0.5)
	tr.RecordCost("lambda:execution", 1.5)
	b2 := tr.NewBucket()
	tr.SetSink(b2)
	tr.RecordCost("s3:put", 0.25)
	tr.SetSink(prev)
	tr.RecordCost("dropped", 99) // no sink: discarded

	if got := b1.Total(); got != 2.0 {
		t.Fatalf("bucket1 total = %v", got)
	}
	if got := b2.Total(); got != 0.25 {
		t.Fatalf("bucket2 total = %v", got)
	}
	evs := append(b1.Events(), b2.Events()...)
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("sequence numbers not strictly increasing: %+v", evs)
		}
	}
}

func TestWaterfallGlyphs(t *testing.T) {
	root := &Span{Name: "job", Kind: KindJob, Duration: 10 * time.Second}
	up := root.AddChild(&Span{Name: "upload", Kind: KindUpload, Track: "input", Duration: time.Second})
	up.AddChild(&Span{Name: "put", Kind: KindAttempt, Track: "input", Duration: time.Second})
	inv := root.AddChild(&Span{Name: "invoke", Kind: KindInvoke, Track: "λ0", Duration: 10 * time.Second})
	inv.SetAttr("memory_mb", "832")
	inv.SetAttr("cold", "true")
	att := inv.AddChild(&Span{Name: "attempt-1", Kind: KindAttempt, Track: "λ0", Duration: 10 * time.Second})
	att.AddChild(&Span{Name: "coldstart", Kind: KindPhase, Track: "λ0", Start: 0, Duration: 2 * time.Second})
	att.AddChild(&Span{Name: "load-weights", Kind: KindPhase, Track: "λ0", Start: 2 * time.Second, Duration: 2 * time.Second})
	att.AddChild(&Span{Name: "s3-read", Kind: KindPhase, Track: "λ0", Start: 4 * time.Second, Duration: 2 * time.Second})
	att.AddChild(&Span{Name: "compute", Kind: KindPhase, Track: "λ0", Start: 6 * time.Second, Duration: 2 * time.Second})
	att.AddChild(&Span{Name: "s3-write", Kind: KindPhase, Track: "λ0", Start: 8 * time.Second, Duration: 2 * time.Second})

	out := Waterfall(root, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 rows, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "input") || !strings.Contains(lines[0], "w") {
		t.Fatalf("input row wrong: %q", lines[0])
	}
	row := lines[1]
	if !strings.HasPrefix(row, "λ0") || !strings.HasSuffix(row, "832MB (cold)") {
		t.Fatalf("lambda row wrong: %q", row)
	}
	for _, g := range []string{"I", "L", "r", "C", "w"} {
		if !strings.Contains(row, g) {
			t.Fatalf("glyph %s missing from %q", g, row)
		}
	}
	// Glyphs must appear in phase order.
	order := []byte{'I', 'L', 'r', 'C', 'w'}
	last := -1
	for _, g := range order {
		i := strings.LastIndexByte(row[:len(row)-len("  832MB (cold)")], g)
		if i <= last {
			t.Fatalf("glyph %c out of order in %q", g, row)
		}
		last = i
	}

	if got := Waterfall(nil, 40); got != "(zero-length job)\n" {
		t.Fatalf("nil waterfall = %q", got)
	}
	if got := Waterfall(&Span{}, 40); got != "(zero-length job)\n" {
		t.Fatalf("empty waterfall = %q", got)
	}
}

func TestWaterfallShortPhaseStaysVisible(t *testing.T) {
	root := &Span{Name: "job", Kind: KindJob, Duration: 100 * time.Second}
	inv := root.AddChild(&Span{Name: "invoke", Kind: KindInvoke, Track: "λ0", Duration: 100 * time.Second})
	// 1 ms of compute in a 100 s job rounds to zero columns; it must
	// still paint one.
	inv.AddChild(&Span{Name: "compute", Kind: KindPhase, Track: "λ0", Start: 50 * time.Second, Duration: time.Millisecond})
	if out := Waterfall(root, 40); !strings.Contains(out, "C") {
		t.Fatalf("short phase vanished:\n%s", out)
	}
}

func TestChromeTraceShape(t *testing.T) {
	root := &Span{Name: "job", Kind: KindJob, Track: "coordinator", Duration: 2 * time.Second, Cost: 0.5}
	inv := root.AddChild(&Span{
		Name: "part-0", Kind: KindInvoke, Track: "fn-0",
		Start: 0, Duration: 2 * time.Second,
	})
	inv.AddChild(&Span{Name: "marker", Kind: KindPhase, Track: "fn-0", Start: time.Second, Duration: 0})
	inv.AddEvent("fault", 500*time.Millisecond, map[string]string{"kind": "crash"})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Span{root}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var xEvents, metaEvents, instants int
	for _, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			xEvents++
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event without dur (zero-length spans need it too): %v", ev)
			}
			if _, ok := ev["ts"]; !ok {
				t.Fatalf("complete event without ts: %v", ev)
			}
		case "M":
			metaEvents++
		case "i":
			instants++
			if ev["s"] != "t" {
				t.Fatalf("instant event must be thread-scoped: %v", ev)
			}
		}
	}
	if xEvents != 3 {
		t.Fatalf("want 3 complete events, got %d", xEvents)
	}
	if metaEvents != 3 { // process_name + 2 thread_names
		t.Fatalf("want 3 metadata events, got %d", metaEvents)
	}
	if instants != 1 {
		t.Fatalf("want 1 instant event, got %d", instants)
	}

	var again bytes.Buffer
	if err := WriteChromeTrace(&again, []*Span{root}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}
}

func TestChromeTraceJobsLaidOutEndToEnd(t *testing.T) {
	j1 := &Span{Name: "job-1", Kind: KindJob, Track: "coordinator", Duration: time.Second}
	j2 := &Span{Name: "job-2", Kind: KindJob, Track: "coordinator", Duration: time.Second}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*Span{j1, j2}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var ts []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			ts = append(ts, ev.Ts)
		}
	}
	if len(ts) != 2 || ts[1] <= ts[0]+microseconds(time.Second) {
		t.Fatalf("jobs not separated on the timebase: %v", ts)
	}
}

func TestCountSpans(t *testing.T) {
	root := &Span{Name: "a"}
	root.AddChild(&Span{Name: "b"}).AddChild(&Span{Name: "c"})
	if n := CountSpans([]*Span{root, {Name: "d"}}); n != 4 {
		t.Fatalf("CountSpans = %d", n)
	}
}

func TestShiftRebasesTreeAndEvents(t *testing.T) {
	root := &Span{Name: "job", Start: 0, Duration: 2 * time.Second}
	c := root.AddChild(&Span{Name: "c", Start: 500 * time.Millisecond, Duration: time.Second})
	c.AddEvent("fault:crash", 700*time.Millisecond, nil)

	Shift(root, 3*time.Second)
	if root.Start != 3*time.Second || root.End() != 5*time.Second {
		t.Fatalf("root shifted to [%v, %v)", root.Start, root.End())
	}
	if c.Start != 3500*time.Millisecond || c.Duration != time.Second {
		t.Fatalf("child shifted to [%v, +%v)", c.Start, c.Duration)
	}
	if c.Events[0].At != 3700*time.Millisecond {
		t.Fatalf("event shifted to %v", c.Events[0].At)
	}
	if err := ValidateTree(root); err != nil {
		t.Fatalf("shifted tree invalid: %v", err)
	}
}

func TestSumCostsAllMatchesSingleTreeFold(t *testing.T) {
	// Splitting one meter's events across two trees must fold to the
	// same total as holding them all in one tree: replay is by global
	// Seq, not per tree.
	one := &Span{Name: "a", Duration: time.Second}
	one.CostEvents = []CostEvent{
		{Seq: 1, Category: "s3:put", Amount: 0.1},
		{Seq: 4, Category: "lambda:execution", Amount: 0.4},
	}
	two := &Span{Name: "b", Duration: time.Second}
	two.CostEvents = []CostEvent{
		{Seq: 2, Category: "lambda:execution", Amount: 0.2},
		{Seq: 3, Category: "s3:put", Amount: 0.3},
	}
	merged := &Span{Name: "all", Duration: time.Second}
	merged.CostEvents = append(append([]CostEvent(nil), one.CostEvents...), two.CostEvents...)

	got := SumCostsAll([]*Span{one, two})
	if want := SumCosts(merged); got != want {
		t.Fatalf("SumCostsAll = %v, want %v", got, want)
	}
	if SumCostsAll(nil) != 0 {
		t.Fatal("SumCostsAll(nil) != 0")
	}
}
