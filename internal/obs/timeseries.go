package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sync"
	"time"
)

// TimeSeries aggregates counters, gauges and log-linear latency
// histograms into fixed windows of the simulated clock and flushes each
// completed window as one immutable WindowFrame on an ordered,
// deterministic stream. Recording is cheap — each name resolves once to
// a dense slot index, and recordings are index writes into the open
// window's slot arrays; the flushed frames are what consumers — the
// NDJSON stream, subscribers, the re-planning daemon — read.
//
// Windows are half-open intervals [i·W, (i+1)·W) of simulated time.
// Advance(now) flushes, in ascending window order, every window whose
// end is ≤ now; because the schedulers only record at timestamps at or
// after the simulated clock and the clock never retreats, a flushed
// window can never receive another recording (late recordings below the
// flush point are clamped into the oldest open window defensively, so
// nothing is ever silently dropped). Close flushes whatever remains.
//
// Flushed window aggregations and their histograms are recycled through
// free lists, so a long streaming run allocates per flushed frame, not
// per recording.
//
// All methods are nil-safe — a nil *TimeSeries is a valid no-op sink —
// and safe for concurrent use. Only non-empty windows are emitted;
// idle stretches cost nothing on the stream.
type TimeSeries struct {
	mu        sync.Mutex
	window    time.Duration
	flushedTo int64        // lowest window index still open
	pending   []openWindow // the open windows, ascending by index
	curIdx    int64        // window index of curAgg, valid iff curAgg != nil
	curAgg    *windowAgg   // cache of the most recently touched open window
	frames    []*WindowFrame
	retain    int
	subs      []seriesSub
	subID     int
	closed    bool
	done      chan struct{}

	// Slot registries: name → dense index, shared by every window.
	counterIdx map[string]int32
	counterNms []string
	totalIdx   map[string]int32
	totalNms   []string
	gaugeIdx   map[string]int32
	gaugeNms   []string
	histIdx    map[string]int32
	histNms    []string

	aggFree  []*windowAgg // recycled window aggregations
	histFree []*logHist   // recycled per-window histograms
}

// openWindow is one entry of the pending list.
type openWindow struct {
	idx int64
	agg *windowAgg
}

// windowAgg is one still-open window's mutable aggregation state:
// per-kind slot arrays parallel to the series' name registries. The
// set flags distinguish "never recorded this window" from a recorded
// zero, so frames contain exactly the names that were written.
type windowAgg struct {
	counters    []int64
	countersSet []bool
	totals      []float64
	totalsSet   []bool
	gauges      []float64
	gaugesSet   []bool
	hists       []*logHist // nil until first observation this window
}

// WindowFrame is one flushed window of the metrics stream. Maps marshal
// with sorted keys, so a frame's JSON form is byte-deterministic.
type WindowFrame struct {
	// Index is the window number: the frame covers simulated time
	// [Index·W, (Index+1)·W).
	Index int64 `json:"window"`
	// Start and End are the window bounds in simulated seconds.
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`

	Counters map[string]int64      `json:"counters,omitempty"`
	Totals   map[string]float64    `json:"totals,omitempty"`
	Gauges   map[string]float64    `json:"gauges,omitempty"`
	Hists    map[string]*HistFrame `json:"hists,omitempty"`
}

// NewTimeSeries creates a time series with the given window width
// (values ≤ 0 default to one simulated second).
func NewTimeSeries(window time.Duration) *TimeSeries {
	if window <= 0 {
		window = time.Second
	}
	return &TimeSeries{window: window, done: make(chan struct{})}
}

// seriesSub is one registered subscriber; the id lets Subscribe's cancel
// func remove it without disturbing the deterministic delivery order of
// the others.
type seriesSub struct {
	id int
	fn func(*WindowFrame)
}

// closedSeriesDone is the Done channel of a nil series: already closed,
// so selects against it never block.
var closedSeriesDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel that is closed when the series is Closed — no
// further frames will be flushed after it fires. A nil series is always
// done.
func (ts *TimeSeries) Done() <-chan struct{} {
	if ts == nil {
		return closedSeriesDone
	}
	return ts.done
}

// Window returns the configured window width (0 from a nil series).
func (ts *TimeSeries) Window() time.Duration {
	if ts == nil {
		return 0
	}
	return ts.window
}

// SetRetention caps the retained flushed frames to the most recent n,
// ring-buffer style (0 = keep everything). Subscribers still see every
// frame; only Frames/WriteNDJSON are bounded.
func (ts *TimeSeries) SetRetention(n int) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.compactLocked() // the old cap's slack must not resurface under a looser one
	ts.retain = n
}

// Subscribe registers fn to be called with each frame as it is flushed,
// in window order. fn runs under the series lock and must not call back
// into the series. The returned cancel func removes the subscription
// (idempotent, safe from any goroutine, but not from inside fn — that
// would deadlock on the series lock); delivery order of the remaining
// subscribers is preserved. Subscribing to a nil series returns a no-op
// cancel.
func (ts *TimeSeries) Subscribe(fn func(*WindowFrame)) (cancel func()) {
	if ts == nil || fn == nil {
		return func() {}
	}
	ts.mu.Lock()
	ts.subID++
	id := ts.subID
	ts.subs = append(ts.subs, seriesSub{id: id, fn: fn})
	ts.mu.Unlock()
	return func() {
		ts.mu.Lock()
		defer ts.mu.Unlock()
		for i := range ts.subs {
			if ts.subs[i].id == id {
				ts.subs = append(ts.subs[:i], ts.subs[i+1:]...)
				return
			}
		}
	}
}

// --- slot registries ---

// internName is internSlot for a series registry, whose per-slot
// storage is just the name.
func internName(idx *map[string]int32, names *[]string, name string) int32 {
	i, fresh := internSlot(idx, name, len(*names))
	if fresh {
		*names = append(*names, name)
	}
	return i
}

func (ts *TimeSeries) counterSlotLocked(name string) int32 {
	return internName(&ts.counterIdx, &ts.counterNms, name)
}

func (ts *TimeSeries) totalSlotLocked(name string) int32 {
	return internName(&ts.totalIdx, &ts.totalNms, name)
}

func (ts *TimeSeries) gaugeSlotLocked(name string) int32 {
	return internName(&ts.gaugeIdx, &ts.gaugeNms, name)
}

func (ts *TimeSeries) histSlotLocked(name string) int32 {
	return internName(&ts.histIdx, &ts.histNms, name)
}

// grow extends a slot array (and its set flags) to cover slot.
func growSlots[T any](vals []T, n int) []T {
	if n <= cap(vals) {
		return vals[:n]
	}
	nv := make([]T, n, n+n/2+4)
	copy(nv, vals)
	return nv
}

// --- recording ---

// Inc adds delta to the named counter in the window containing at.
func (ts *TimeSeries) Inc(at time.Duration, name string, delta int64) {
	ts.CounterHandle(name).Inc(at, delta)
}

func (ts *TimeSeries) incLocked(at time.Duration, slot int32, delta int64) {
	w := ts.aggLocked(at)
	if int(slot) >= len(w.counters) {
		n := len(ts.counterNms)
		w.counters = growSlots(w.counters, n)
		w.countersSet = growSlots(w.countersSet, n)
	}
	w.counters[slot] += delta
	w.countersSet[slot] = true
}

// Add accumulates v into the named float total in the window
// containing at.
func (ts *TimeSeries) Add(at time.Duration, name string, v float64) {
	ts.TotalHandle(name).Add(at, v)
}

func (ts *TimeSeries) addLocked(at time.Duration, slot int32, v float64) {
	w := ts.aggLocked(at)
	if int(slot) >= len(w.totals) {
		n := len(ts.totalNms)
		w.totals = growSlots(w.totals, n)
		w.totalsSet = growSlots(w.totalsSet, n)
	}
	w.totals[slot] += v
	w.totalsSet[slot] = true
}

// Gauge sets the named gauge in the window containing at; the last
// write into a window wins.
func (ts *TimeSeries) Gauge(at time.Duration, name string, v float64) {
	ts.GaugeHandle(name).Set(at, v)
}

func (ts *TimeSeries) gaugeLocked(at time.Duration, slot int32, v float64) {
	w := ts.aggLocked(at)
	if int(slot) >= len(w.gauges) {
		n := len(ts.gaugeNms)
		w.gauges = growSlots(w.gauges, n)
		w.gaugesSet = growSlots(w.gaugesSet, n)
	}
	w.gauges[slot] = v
	w.gaugesSet[slot] = true
}

// Observe records v into the named log-linear histogram in the window
// containing at. Non-finite values are ignored.
func (ts *TimeSeries) Observe(at time.Duration, name string, v float64) {
	ts.HistHandle(name).Observe(at, v)
}

func (ts *TimeSeries) observeLocked(at time.Duration, slot int32, v float64) {
	w := ts.aggLocked(at)
	if int(slot) >= len(w.hists) {
		w.hists = growSlots(w.hists, len(ts.histNms))
	}
	h := w.hists[slot]
	if h == nil {
		h = ts.newLogHistLocked()
		w.hists[slot] = h
	}
	h.observe(v)
}

func (ts *TimeSeries) newLogHistLocked() *logHist {
	if n := len(ts.histFree); n > 0 {
		h := ts.histFree[n-1]
		ts.histFree = ts.histFree[:n-1]
		return h
	}
	return &logHist{}
}

// --- pre-resolved handles ---
//
// A handle resolves a metric name to its slot once, so steady-state
// recording skips the name lookup entirely: a mutex, a window lookup
// (almost always the cached open window) and an index write. Handles
// from a nil series are valid no-ops.

// SeriesCounterHandle is a pre-resolved windowed counter.
type SeriesCounterHandle struct {
	ts   *TimeSeries
	slot int32
}

// CounterHandle resolves name to a counter slot.
func (ts *TimeSeries) CounterHandle(name string) SeriesCounterHandle {
	if ts == nil {
		return SeriesCounterHandle{}
	}
	ts.mu.Lock()
	slot := ts.counterSlotLocked(name)
	ts.mu.Unlock()
	return SeriesCounterHandle{ts: ts, slot: slot}
}

// Inc adds delta to the counter in the window containing at.
func (h SeriesCounterHandle) Inc(at time.Duration, delta int64) {
	w := h.ts.Begin()
	w.Inc(h, at, delta)
	w.End()
}

// SeriesTotalHandle is a pre-resolved windowed float accumulator.
type SeriesTotalHandle struct {
	ts   *TimeSeries
	slot int32
}

// TotalHandle resolves name to a float-total slot.
func (ts *TimeSeries) TotalHandle(name string) SeriesTotalHandle {
	if ts == nil {
		return SeriesTotalHandle{}
	}
	ts.mu.Lock()
	slot := ts.totalSlotLocked(name)
	ts.mu.Unlock()
	return SeriesTotalHandle{ts: ts, slot: slot}
}

// Add accumulates v into the total in the window containing at.
func (h SeriesTotalHandle) Add(at time.Duration, v float64) {
	w := h.ts.Begin()
	w.Add(h, at, v)
	w.End()
}

// SeriesGaugeHandle is a pre-resolved windowed gauge.
type SeriesGaugeHandle struct {
	ts   *TimeSeries
	slot int32
}

// GaugeHandle resolves name to a gauge slot.
func (ts *TimeSeries) GaugeHandle(name string) SeriesGaugeHandle {
	if ts == nil {
		return SeriesGaugeHandle{}
	}
	ts.mu.Lock()
	slot := ts.gaugeSlotLocked(name)
	ts.mu.Unlock()
	return SeriesGaugeHandle{ts: ts, slot: slot}
}

// Set sets the gauge in the window containing at; the last write into
// a window wins.
func (h SeriesGaugeHandle) Set(at time.Duration, v float64) {
	w := h.ts.Begin()
	w.Set(h, at, v)
	w.End()
}

// SeriesHistHandle is a pre-resolved windowed log-linear histogram.
type SeriesHistHandle struct {
	ts   *TimeSeries
	slot int32
}

// HistHandle resolves name to a histogram slot.
func (ts *TimeSeries) HistHandle(name string) SeriesHistHandle {
	if ts == nil {
		return SeriesHistHandle{}
	}
	ts.mu.Lock()
	slot := ts.histSlotLocked(name)
	ts.mu.Unlock()
	return SeriesHistHandle{ts: ts, slot: slot}
}

// Observe records v into the histogram in the window containing at.
// Non-finite values are ignored.
func (h SeriesHistHandle) Observe(at time.Duration, v float64) {
	w := h.ts.Begin()
	w.Observe(h, at, v)
	w.End()
}

// SeriesWriter is MetricsWriter for a TimeSeries: one lock section, bare
// writes into the window containing each recording's instant, under the
// same rules. No window is flushed inside a section — only Advance,
// Flush and Close flush.
type SeriesWriter struct{ ts *TimeSeries }

// Begin opens a write section; every Begin needs exactly one End.
func (ts *TimeSeries) Begin() SeriesWriter {
	if ts != nil {
		ts.mu.Lock()
	}
	return SeriesWriter{ts}
}

// End closes the section.
func (w SeriesWriter) End() {
	if w.ts != nil {
		w.ts.mu.Unlock()
	}
}

// Inc adds delta to the counter in the window containing at.
func (w SeriesWriter) Inc(h SeriesCounterHandle, at time.Duration, delta int64) {
	if h.ts != w.ts {
		h.Inc(at, delta)
	} else if h.ts != nil {
		h.ts.incLocked(at, h.slot, delta)
	}
}

// Add accumulates v into the total in the window containing at.
func (w SeriesWriter) Add(h SeriesTotalHandle, at time.Duration, v float64) {
	if h.ts != w.ts {
		h.Add(at, v)
	} else if h.ts != nil {
		h.ts.addLocked(at, h.slot, v)
	}
}

// Set sets the gauge in the window containing at.
func (w SeriesWriter) Set(h SeriesGaugeHandle, at time.Duration, v float64) {
	if h.ts != w.ts {
		h.Set(at, v)
	} else if h.ts != nil {
		h.ts.gaugeLocked(at, h.slot, v)
	}
}

// Observe records v in the window containing at; non-finite values are
// ignored.
func (w SeriesWriter) Observe(h SeriesHistHandle, at time.Duration, v float64) {
	if h.ts != w.ts {
		h.Observe(at, v)
	} else if h.ts != nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
		h.ts.observeLocked(at, h.slot, v)
	}
}

// aggLocked returns the open window aggregation for the instant at,
// clamping instants before the flush point into the oldest open window.
// The most recently touched window is cached: in a time-ordered run
// virtually every recording hits the cache and skips the search.
func (ts *TimeSeries) aggLocked(at time.Duration) *windowAgg {
	if at < 0 {
		at = 0
	}
	idx := int64(at / ts.window)
	if idx < ts.flushedTo {
		idx = ts.flushedTo
	}
	if ts.curAgg != nil && ts.curIdx == idx {
		return ts.curAgg
	}
	i, ok := slices.BinarySearchFunc(ts.pending, idx, func(w openWindow, idx int64) int { return cmp.Compare(w.idx, idx) })
	if !ok {
		ts.pending = slices.Insert(ts.pending, i, openWindow{idx: idx, agg: ts.newAggLocked()})
	}
	ts.curIdx, ts.curAgg = idx, ts.pending[i].agg
	return ts.curAgg
}

func (ts *TimeSeries) newAggLocked() *windowAgg {
	if n := len(ts.aggFree); n > 0 {
		w := ts.aggFree[n-1]
		ts.aggFree = ts.aggFree[:n-1]
		return w
	}
	return &windowAgg{}
}

// Advance flushes every window that ends at or before the simulated
// instant now, in ascending window order. Call it from the scheduler as
// the clock moves; it is idempotent and never flushes ahead of now.
func (ts *TimeSeries) Advance(now time.Duration) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	target := int64(now / ts.window)
	if target > ts.flushedTo {
		ts.flushLocked(target)
	}
	ts.mu.Unlock()
}

// Flush emits every window that has received a recording — the final
// partial window of a trace included — while keeping the series open
// for later recordings at later instants. Advance can only flush
// windows whose end the simulated clock has passed, so a run whose
// last events land mid-window would otherwise leave its final frame
// pending until Close; the serving schedulers call Flush at the end of
// each run so that frame is never silently dropped.
func (ts *TimeSeries) Flush() {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if n := len(ts.pending); n > 0 {
		ts.flushLocked(ts.pending[n-1].idx + 1)
	}
}

// Close flushes every still-open window — the final partial window of a
// run included — and then fires Done, releasing live-stream followers.
// Call it once the run is over, before exporting the stream. Idempotent.
func (ts *TimeSeries) Close() {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.flushLocked(math.MaxInt64)
	if !ts.closed {
		ts.closed = true
		close(ts.done)
	}
}

// flushLocked emits every pending window with index < target.
func (ts *TimeSeries) flushLocked(target int64) {
	if target <= ts.flushedTo {
		return
	}
	n := 0
	for ; n < len(ts.pending) && ts.pending[n].idx < target; n++ {
		w := ts.pending[n]
		frame := ts.frameLocked(w.agg, w.idx)
		ts.recycleAggLocked(w.agg)
		ts.frames = append(ts.frames, frame)
		for _, s := range ts.subs {
			s.fn(frame)
		}
	}
	ts.pending = append(ts.pending[:0], ts.pending[n:]...)
	ts.curAgg = nil
	ts.evictLocked()
	ts.flushedTo = target
}

// recycleAggLocked resets a flushed window's aggregation for reuse.
// Histograms were already returned to the free list by frameLocked.
func (ts *TimeSeries) recycleAggLocked(w *windowAgg) {
	clear(w.counters)
	clear(w.countersSet)
	clear(w.totals)
	clear(w.totalsSet)
	clear(w.gauges)
	clear(w.gaugesSet)
	clear(w.hists)
	ts.aggFree = append(ts.aggFree, w)
}

// evictLocked drops frames beyond the retention cap, compacting in place
// only once the slice holds twice the cap — so a long run moves each
// retained pointer O(1) times amortised instead of copying the whole
// retained set per flush. retainedLocked hides the slack.
func (ts *TimeSeries) evictLocked() {
	if ts.retain > 0 && len(ts.frames) > 2*ts.retain {
		ts.compactLocked()
	}
}

func (ts *TimeSeries) compactLocked() {
	n := copy(ts.frames, ts.retainedLocked())
	clear(ts.frames[n:])
	ts.frames = ts.frames[:n]
}

// retainedLocked is the newest retain frames (all of them when
// retention is off), in window order.
func (ts *TimeSeries) retainedLocked() []*WindowFrame {
	if ts.retain > 0 && len(ts.frames) > ts.retain {
		return ts.frames[len(ts.frames)-ts.retain:]
	}
	return ts.frames
}

// frameLocked freezes a window's aggregation into an immutable
// WindowFrame, returning its histograms to the free list. Each map is
// made at its final size, and the frame's histograms and their buckets
// share one allocation each.
func (ts *TimeSeries) frameLocked(w *windowAgg, idx int64) *WindowFrame {
	f := &WindowFrame{
		Index: idx,
		Start: (time.Duration(idx) * ts.window).Seconds(),
		End:   (time.Duration(idx+1) * ts.window).Seconds(),
	}
	f.Counters = frameScalars(ts.counterNms, w.counters, w.countersSet)
	f.Totals = frameScalars(ts.totalNms, w.totals, w.totalsSet)
	f.Gauges = frameScalars(ts.gaugeNms, w.gauges, w.gaugesSet)
	nh, nb := 0, 0
	for _, h := range w.hists {
		if h != nil {
			nh++
			nb += len(h.cells)
		}
	}
	if nh == 0 {
		return f
	}
	f.Hists = make(map[string]*HistFrame, nh)
	frames, buckets := make([]HistFrame, nh), make([]HistBucket, nb)
	for slot, h := range w.hists {
		if h == nil {
			continue
		}
		n := len(h.cells)
		h.frame(&frames[0], buckets[:n:n])
		f.Hists[ts.histNms[slot]] = &frames[0]
		frames, buckets = frames[1:], buckets[n:]
		h.reset()
		ts.histFree = append(ts.histFree, h)
	}
	return f
}

// frameScalars copies the slots written this window into a map of
// exactly that size (nil when none was written).
func frameScalars[T int64 | float64](names []string, vals []T, set []bool) map[string]T {
	n := 0
	for _, s := range set {
		if s {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]T, n)
	for slot, s := range set {
		if s {
			m[names[slot]] = vals[slot]
		}
	}
	return m
}

// Frames returns the flushed frames in window order.
func (ts *TimeSeries) Frames() []*WindowFrame {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]*WindowFrame(nil), ts.retainedLocked()...)
}

// WriteNDJSON writes the flushed frames as newline-delimited JSON, one
// frame per line in window order. Deterministic: map keys marshal
// sorted and every number derives from the simulated clock, so two
// same-seed runs produce byte-identical streams.
func (ts *TimeSeries) WriteNDJSON(w io.Writer) error {
	for _, f := range ts.Frames() {
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// --- log-linear histogram ---

// histSubBuckets is the number of linear subdivisions per power of two;
// 16 gives ~3% worst-case relative bucket error, plenty for p50/p95/p99
// over simulated latencies, at a handful of occupied buckets per window.
const histSubBuckets = 16

// zeroBucketIndex collects observations ≤ 0 (the log-linear grid only
// covers positives). Its upper bound renders as 0.
const zeroBucketIndex = math.MinInt32

// logHist is a sparse log-linear histogram: each positive observation
// lands in one of 16 equal-width buckets inside its binade (the
// [2^(e-1), 2^e) range from math.Frexp), so quantiles are recovered to
// ~3% without storing samples. The occupied buckets — a handful per
// window — are kept in ascending index order, which is the order a
// frame lists them in.
type logHist struct {
	cells []histCell
	count int64
	sum   float64
	min   float64
	max   float64
}

// histCell is one occupied bucket: n observations at grid index idx.
type histCell struct {
	idx int
	n   int64
}

// reset clears the histogram for reuse, keeping the bucket storage.
func (h *logHist) reset() {
	*h = logHist{cells: h.cells[:0]}
}

func (h *logHist) observe(v float64) {
	idx := histBucketIndex(v)
	i, ok := slices.BinarySearchFunc(h.cells, idx, func(c histCell, idx int) int { return cmp.Compare(c.idx, idx) })
	if !ok {
		h.cells = slices.Insert(h.cells, i, histCell{idx: idx})
	}
	h.cells[i].n++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// histBucketIndex maps a value onto the log-linear grid. Frexp (exact
// bit manipulation, unlike math.Log) keeps the mapping platform
// deterministic: v = frac·2^exp with frac ∈ [0.5, 1), and the binade is
// split into histSubBuckets equal slices by frac.
func histBucketIndex(v float64) int {
	if v <= 0 {
		return zeroBucketIndex
	}
	frac, exp := math.Frexp(v)
	sub := int((frac - 0.5) * 2 * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return exp*histSubBuckets + sub
}

// histBucketUpper is the inclusive upper bound of bucket idx: the
// smallest grid point strictly above every value the bucket admits.
func histBucketUpper(idx int) float64 {
	if idx == zeroBucketIndex {
		return 0
	}
	exp := idx / histSubBuckets
	sub := idx % histSubBuckets
	if sub < 0 { // floor division for negative indexes
		sub += histSubBuckets
		exp--
	}
	return math.Ldexp(0.5+float64(sub+1)/(2*histSubBuckets), exp)
}

// HistBucket is one occupied histogram bucket: N observations with
// value ≤ Le. Buckets are serialized as an ordered slice (ascending
// Le), not a map, so numeric order survives JSON.
type HistBucket struct {
	Le float64 `json:"le"`
	N  int64   `json:"n"`
}

// HistFrame is a frozen per-window histogram: summary statistics,
// nearest-rank quantiles resolved to bucket upper bounds, and the
// occupied buckets in ascending order.
type HistFrame struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// frame freezes the histogram into f, listing its occupied buckets in
// the caller's storage (len(h.cells) long).
func (h *logHist) frame(f *HistFrame, buckets []HistBucket) {
	for i, c := range h.cells {
		buckets[i] = HistBucket{Le: histBucketUpper(c.idx), N: c.n}
	}
	*f = HistFrame{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		P50: h.quantile(0.50), P95: h.quantile(0.95), P99: h.quantile(0.99),
		Buckets: buckets,
	}
}

// quantile is the nearest-rank quantile over the occupied buckets,
// resolved to the bucket's upper bound (clamped to the observed max so
// a lone sample reports itself, not its bucket edge).
func (h *logHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, c := range h.cells {
		seen += c.n
		if seen >= rank {
			up := histBucketUpper(c.idx)
			if up > h.max {
				up = h.max
			}
			return up
		}
	}
	return h.max
}
