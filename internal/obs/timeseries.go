package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TimeSeries aggregates counters, gauges and log-linear latency
// histograms into fixed windows of the simulated clock and flushes each
// completed window, in window order, onto a deterministic stream.
// Recording is cheap — a handle resolves its name once to a dense slot
// index, and recordings are index writes into the open window's slot
// arrays; the flushed windows are what consumers — the NDJSON stream,
// subscribers, the re-planning daemon — read.
//
// Windows are half-open intervals [i·W, (i+1)·W) of simulated time.
// Advance(now) flushes, in ascending window order, every window whose
// end is ≤ now; because the schedulers only record at timestamps at or
// after the simulated clock and the clock never retreats, a flushed
// window can never receive another recording (late recordings below the
// flush point are clamped into the oldest open window defensively, so
// nothing is ever silently dropped). Close flushes whatever remains.
//
// A flushed window is one pointer-free record in an append-only log
// (see windowLog) that keeps every window of the run; WindowFrame is
// built from it on read. Open window aggregations and their histograms
// are recycled through free lists, so a long streaming run allocates
// per log chunk, not per window.
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
	log       windowLog
	subs      []seriesSub
	subID     int
	closed    bool
	done      chan struct{}

	reg [nKinds]slotReg // name → dense slot, per kind, shared by every window

	aggFree  []*windowAgg // recycled window aggregations
	histFree []*logHist   // recycled per-window histograms
	scratch  logHist      // decodes records for subscribers and typed reads
}

// The metric kinds, indexing the series' slot registries.
const (
	kCounter = iota
	kTotal
	kGauge
	kHist
	nKinds
)

// slotReg is one kind's slot registry, in a Metrics or a TimeSeries.
// keys[slot] is json.Marshal of names[slot], so the NDJSON encoder
// escapes exactly as encoding/json does; a series caches it when a view
// first needs it (the registry never does). Both slices are
// append-only, so a reader may keep a copy of their headers outside the
// lock.
type slotReg struct {
	idx   map[string]int32
	names []string
	keys  []string
}

// intern returns name's slot, giving a new name the next one.
func (r *slotReg) intern(name string) int32 {
	if i, ok := r.idx[name]; ok {
		return i
	}
	if r.idx == nil {
		r.idx = make(map[string]int32)
	}
	i := int32(len(r.names))
	r.idx[name] = i
	r.names = append(r.names, name)
	return i
}

// cells holds scalar slots — a counter as int64 bits, a total or gauge as
// float64 bits — with set flags that tell "never written" from a written
// zero, so output lists exactly the names that were written. The
// registry keeps its scalars in one, and so does each open window.
type cells struct {
	vals [kHist][]uint64
	set  [kHist][]bool
}

// cell returns kind k's cell for slot, marked written, first growing the
// arrays to the registry's n slots if slot is past them.
func (c *cells) cell(k int, slot int32, n int) *uint64 {
	if int(slot) >= len(c.vals[k]) {
		c.vals[k], c.set[k] = growSlots(c.vals[k], n), growSlots(c.set[k], n)
	}
	c.set[k][slot] = true
	return &c.vals[k][slot]
}

// addFloat accumulates v into a float64 cell.
func addFloat(c *uint64, v float64) { *c = math.Float64bits(math.Float64frombits(*c) + v) }

// finite reports whether v is neither NaN nor ±Inf; histograms of both
// sinks ignore the rest.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// openWindow is one entry of the pending list.
type openWindow struct {
	idx int64
	agg *windowAgg
}

// windowAgg is one still-open window's mutable aggregation state:
// per-kind slot arrays parallel to the series' name registries, the
// scalars in the form a record stores.
type windowAgg struct {
	cells
	hists []*logHist // nil until first observation this window
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

// cellLocked returns the kind-k scalar slot's cell in the window
// containing at, marked written.
func (ts *TimeSeries) cellLocked(k int, at time.Duration, slot int32) *uint64 {
	return ts.aggLocked(at).cell(k, slot, len(ts.reg[k].names))
}

func (ts *TimeSeries) observeLocked(at time.Duration, slot int32, v float64) {
	w := ts.aggLocked(at)
	if int(slot) >= len(w.hists) {
		w.hists = growSlots(w.hists, len(ts.reg[kHist].names))
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

// slot resolves name in kind k's registry (0 from a nil series).
func (ts *TimeSeries) slot(k int, name string) int32 {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.reg[k].intern(name)
}

// SeriesCounterHandle is a pre-resolved windowed counter.
type SeriesCounterHandle struct {
	ts   *TimeSeries
	slot int32
}

// CounterHandle resolves name to a counter slot.
func (ts *TimeSeries) CounterHandle(name string) SeriesCounterHandle {
	return SeriesCounterHandle{ts, ts.slot(kCounter, name)}
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
	return SeriesTotalHandle{ts, ts.slot(kTotal, name)}
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
	return SeriesGaugeHandle{ts, ts.slot(kGauge, name)}
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
	return SeriesHistHandle{ts, ts.slot(kHist, name)}
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
		*h.ts.cellLocked(kCounter, at, h.slot) += uint64(delta)
	}
}

// Add accumulates v into the total in the window containing at.
func (w SeriesWriter) Add(h SeriesTotalHandle, at time.Duration, v float64) {
	if h.ts != w.ts {
		h.Add(at, v)
	} else if h.ts != nil {
		addFloat(h.ts.cellLocked(kTotal, at, h.slot), v)
	}
}

// Set sets the gauge in the window containing at.
func (w SeriesWriter) Set(h SeriesGaugeHandle, at time.Duration, v float64) {
	if h.ts != w.ts {
		h.Set(at, v)
	} else if h.ts != nil {
		*h.ts.cellLocked(kGauge, at, h.slot) = math.Float64bits(v)
	}
}

// Observe records v in the window containing at; non-finite values are
// ignored.
func (w SeriesWriter) Observe(h SeriesHistHandle, at time.Duration, v float64) {
	if h.ts != w.ts {
		h.Observe(at, v)
	} else if h.ts != nil && finite(v) {
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
		ts.appendLocked(w.agg, w.idx)
		ts.recycleAggLocked(w.agg)
		ts.publishLocked()
	}
	ts.pending = append(ts.pending[:0], ts.pending[n:]...)
	ts.curAgg = nil
	ts.flushedTo = target
}

// publishLocked hands the record just appended to the subscribers as
// one frame, built only if there are any.
func (ts *TimeSeries) publishLocked() {
	if len(ts.subs) == 0 {
		return
	}
	v := ts.viewLocked(len(ts.log.recs) - 1)
	f := new(WindowFrame)
	v.frame(0, &ts.scratch, f)
	for _, s := range ts.subs {
		s.fn(f)
	}
}

// recycleAggLocked resets a flushed window's aggregation for reuse.
// Histograms were already returned to the free list by appendLocked.
func (ts *TimeSeries) recycleAggLocked(w *windowAgg) {
	for k := range w.vals {
		clear(w.vals[k])
		clear(w.set[k])
	}
	clear(w.hists)
	ts.aggFree = append(ts.aggFree, w)
}

// --- the flushed-window log ---
//
// A flushed window is one record: its index and the position of its
// words in chunked []uint64 arenas, neither holding a pointer for the
// collector to mark. Records are immutable once appended and the log
// only grows, so a reader takes the record range and chunk list under
// the lock and decodes without it (DESIGN §15 "Flushed windows as a
// packed log"). Words:
//
//	n[counter] | n[total]<<32, n[gauge] | n[hist]<<32, Σ cells
//	(slot, value bits) per written counter, then total, then gauge, ascending slot
//	(slot | cells<<32, count, sum, min, max, cells × (bucket index, n)) per histogram
//
// Chunks double from minChunkWords to maxChunkWords; a record larger
// than that gets a chunk of its own size.
const (
	minChunkWords = 1 << 8
	maxChunkWords = 1 << 15
)

// winRec locates one flushed window's record.
type winRec struct {
	idx   int64  // window index
	chunk uint32 // index in windowLog.chunks
	off   uint32 // word offset in the chunk
}

type windowLog struct {
	recs   []winRec
	chunks [][]uint64
	fill   int // words used in the last chunk
}

// alloc appends a record of n words for window idx and returns them.
func (l *windowLog) alloc(idx int64, n int) []uint64 {
	last := len(l.chunks) - 1
	if last < 0 || l.fill+n > len(l.chunks[last]) {
		size := minChunkWords
		if last >= 0 {
			size = min(2*len(l.chunks[last]), maxChunkWords)
		}
		l.chunks = append(l.chunks, make([]uint64, max(size, n)))
		last, l.fill = last+1, 0
	}
	l.recs = append(l.recs, winRec{idx: idx, chunk: uint32(last), off: uint32(l.fill)})
	l.fill += n
	return l.chunks[last][l.fill-n : l.fill]
}

// appendLocked packs window idx's aggregation into a log record,
// returning its histograms to the free list.
func (ts *TimeSeries) appendLocked(w *windowAgg, idx int64) {
	var n [nKinds]int
	cells := 0
	for k := range w.set {
		for _, s := range w.set[k] {
			if s {
				n[k]++
			}
		}
	}
	for _, h := range w.hists {
		if h != nil {
			n[kHist]++
			cells += len(h.cells)
		}
	}
	rec := ts.log.alloc(idx, 3+2*(n[kCounter]+n[kTotal]+n[kGauge])+5*n[kHist]+2*cells)
	rec[0], rec[1], rec[2] = uint64(n[kCounter])|uint64(n[kTotal])<<32, uint64(n[kGauge])|uint64(n[kHist])<<32, uint64(cells)
	p := 3
	for k := range w.set {
		for slot, s := range w.set[k] {
			if s {
				rec[p], rec[p+1] = uint64(slot), w.vals[k][slot]
				p += 2
			}
		}
	}
	for slot, h := range w.hists {
		if h != nil {
			p = h.pack(rec, p, slot)
			h.reset()
			ts.histFree = append(ts.histFree, h)
		}
	}
}

// logView is a range of flushed records with the chunks and names they
// need.
type logView struct {
	window time.Duration
	recs   []winRec
	chunks [][]uint64
	names  [nKinds][]string
	keys   [nKinds][]string
}

// viewLocked aliases the records from the from-th flushed window on.
func (ts *TimeSeries) viewLocked(from int) logView {
	l := &ts.log
	v := logView{window: ts.window, recs: l.recs[min(from, len(l.recs)):], chunks: l.chunks}
	for k := range ts.reg {
		r := &ts.reg[k]
		for _, name := range r.names[len(r.keys):] {
			key, _ := json.Marshal(name) // a string always marshals
			r.keys = append(r.keys, string(key))
		}
		v.names[k], v.keys[k] = r.names, r.keys
	}
	return v
}

// view is viewLocked for a reader that decodes without the lock. The
// headers it copies stay valid: the log only appends, past their ends.
func (ts *TimeSeries) view(from int) logView {
	if ts == nil {
		return logView{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.viewLocked(from)
}

// words returns the record's words and its per-kind entry counts.
func (r winRec) words(chunks [][]uint64) ([]uint64, [nKinds]int) {
	w := chunks[r.chunk][r.off:]
	return w, [nKinds]int{int(uint32(w[0])), int(w[0] >> 32), int(uint32(w[1])), int(w[1] >> 32)}
}

// --- typed reads of flushed windows ---
//
// Window i < FlushedWindows is Frames()[i], read through the handle that
// wrote it with no frame built: every value is that frame's, bit for bit.

// FlushedWindows returns how many windows have been flushed.
func (ts *TimeSeries) FlushedWindows() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.log.recs)
}

// InWindow returns the counter's value in flushed window i, 0 when the
// window holds no write to it.
func (h SeriesCounterHandle) InWindow(i int) int64 {
	h.ts.mu.Lock()
	defer h.ts.mu.Unlock()
	rec, n := h.ts.log.recs[i].words(h.ts.log.chunks)
	for p := 3; p < 3+2*n[kCounter]; p += 2 {
		if rec[p] == uint64(h.slot) {
			return int64(rec[p+1])
		}
	}
	return 0
}

// InWindow returns the histogram's observation count and p99 in flushed
// window i, both 0 when the window holds no observation of it.
func (h SeriesHistHandle) InWindow(i int) (count int64, p99 float64) {
	h.ts.mu.Lock()
	defer h.ts.mu.Unlock()
	rec, n := h.ts.log.recs[i].words(h.ts.log.chunks)
	p := 3 + 2*(n[kCounter]+n[kTotal]+n[kGauge])
	for range n[kHist] {
		if uint32(rec[p]) == uint32(h.slot) {
			h.ts.scratch.unpack(rec, p)
			return h.ts.scratch.count, h.ts.scratch.quantile(0.99)
		}
		p += 5 + 2*int(rec[p]>>32)
	}
	return 0, 0
}

// frame builds record i's WindowFrame into f, decoding its histograms
// through h. Each map is made at its final size, and the frame's
// histograms and their buckets share one allocation each.
func (v *logView) frame(i int, h *logHist, f *WindowFrame) {
	rec, n := v.recs[i].words(v.chunks)
	idx := v.recs[i].idx
	*f = WindowFrame{Index: idx, Start: (time.Duration(idx) * v.window).Seconds(), End: (time.Duration(idx+1) * v.window).Seconds()}
	var p int
	f.Counters, p = unpackSlots(rec, 3, n[kCounter], v.names[kCounter], func(u uint64) int64 { return int64(u) })
	f.Totals, p = unpackSlots(rec, p, n[kTotal], v.names[kTotal], math.Float64frombits)
	f.Gauges, p = unpackSlots(rec, p, n[kGauge], v.names[kGauge], math.Float64frombits)
	if n[kHist] == 0 {
		return
	}
	f.Hists = make(map[string]*HistFrame, n[kHist])
	frames, buckets := make([]HistFrame, n[kHist]), make([]HistBucket, rec[2])
	for k := range frames {
		var slot int
		slot, p = h.unpack(rec, p)
		nb := len(h.cells)
		h.frame(&frames[k], buckets[:nb:nb])
		f.Hists[v.names[kHist][slot]] = &frames[k]
		buckets = buckets[nb:]
	}
}

// unpackSlots reads n (slot, value) pairs at rec[p:] into a map keyed by
// name (nil when n is 0) and returns the position after them.
func unpackSlots[T int64 | float64](rec []uint64, p, n int, names []string, val func(uint64) T) (map[string]T, int) {
	if n == 0 {
		return nil, p
	}
	m := make(map[string]T, n)
	for end := p + 2*n; p < end; p += 2 {
		m[names[rec[p]]] = val(rec[p+1])
	}
	return m, p
}

// frameEncoder writes records as NDJSON lines that are byte for byte
// json.Marshal of the frame each record builds, without building it or
// reflecting: WindowFrame's and HistFrame's field order and omitempty
// rules, map entries in sorted name order (how json.Marshal orders map
// keys) under their cached encoded keys, encoding/json's float format,
// and its UnsupportedValueError on a non-finite float.
type frameEncoder struct {
	b    []byte
	err  error
	ents []int // one record's entries of a kind, in name order
	h    logHist
	hf   HistFrame
	bk   []HistBucket
}

// write encodes every record of v to w, a line per Write.
func (e *frameEncoder) write(w io.Writer, v *logView) error {
	for i := range v.recs {
		b, err := e.line(v, i)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// size is the length of every record of v encoded, as write would
// write them.
func (e *frameEncoder) size(v *logView) (n int, err error) {
	for i := range v.recs {
		b, err := e.line(v, i)
		if err != nil {
			return 0, err
		}
		n += len(b)
	}
	return n, nil
}

// line encodes record i of v as one newline-terminated line; the
// returned slice is reused by the next call.
func (e *frameEncoder) line(v *logView, i int) ([]byte, error) {
	rec, n := v.recs[i].words(v.chunks)
	idx := v.recs[i].idx
	e.b, e.err = strconv.AppendInt(append(e.b[:0], `{"window":`...), idx, 10), nil
	e.float(`,"start_s":`, (time.Duration(idx) * v.window).Seconds())
	e.float(`,"end_s":`, (time.Duration(idx+1) * v.window).Seconds())
	p := 3
	for k, field := range [...]string{`,"counters":{`, `,"totals":{`, `,"gauges":{`, `,"hists":{`} {
		if n[k] == 0 {
			continue
		}
		p = e.sort(v, k, rec, p, n[k])
		e.b = append(e.b, field...)
		for j, q := range e.ents {
			if j > 0 {
				e.b = append(e.b, ',')
			}
			switch k {
			case kCounter:
				e.b = strconv.AppendInt(append(append(e.b, v.keys[k][rec[q]]...), ':'), int64(rec[q+1]), 10)
			case kHist:
				e.hist(v, rec, q)
			default:
				e.b = append(e.b, v.keys[k][rec[q]]...)
				e.float(":", math.Float64frombits(rec[q+1]))
			}
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "}\n"...)
	return e.b, e.err
}

// sort lists the positions of the n kind-k entries at rec[p:] in name
// order and returns the position after them.
func (e *frameEncoder) sort(v *logView, k int, rec []uint64, p, n int) int {
	e.ents = e.ents[:0]
	for ; n > 0; n-- {
		step := 2
		if k == kHist {
			step = 5 + 2*int(rec[p]>>32)
		}
		e.ents, p = append(e.ents, p), p+step
	}
	names := v.names[k]
	slices.SortFunc(e.ents, func(a, b int) int { return strings.Compare(names[uint32(rec[a])], names[uint32(rec[b])]) })
	return p
}

// hist encodes the histogram entry at rec[q:] as its HistFrame.
func (e *frameEncoder) hist(v *logView, rec []uint64, q int) {
	slot, _ := e.h.unpack(rec, q)
	e.bk = slices.Grow(e.bk[:0], len(e.h.cells))[:len(e.h.cells)]
	e.h.frame(&e.hf, e.bk)
	e.b = strconv.AppendInt(append(append(e.b, v.keys[kHist][slot]...), `:{"count":`...), e.hf.Count, 10)
	for i, f := range [...]float64{e.hf.Sum, e.hf.Min, e.hf.Max, e.hf.P50, e.hf.P95, e.hf.P99} {
		e.float([...]string{`,"sum":`, `,"min":`, `,"max":`, `,"p50":`, `,"p95":`, `,"p99":`}[i], f)
	}
	if len(e.hf.Buckets) > 0 {
		e.b = append(e.b, `,"buckets":[`...)
		for j, b := range e.hf.Buckets {
			if j > 0 {
				e.b = append(e.b, ',')
			}
			e.float(`{"le":`, b.Le)
			e.b = append(strconv.AppendInt(append(e.b, `,"n":`...), b.N, 10), '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// float appends prefix and f as encoding/json formats a float64: 'f',
// or 'e' when |f| is below 1e-6 or at least 1e21, with the exponent's
// leading zero trimmed. A non-finite f records json.Marshal's error.
func (e *frameEncoder) float(prefix string, f float64) {
	e.b = append(e.b, prefix...)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// Frames returns the flushed frames in window order, built afresh on
// every call.
func (ts *TimeSeries) Frames() []*WindowFrame {
	v := ts.view(0)
	if len(v.recs) == 0 {
		return nil
	}
	out := make([]*WindowFrame, len(v.recs))
	var h logHist
	for i := range out {
		out[i] = new(WindowFrame)
		v.frame(i, &h, out[i])
	}
	return out
}

// WriteNDJSON writes the flushed frames as newline-delimited JSON, one
// frame per line in window order, each line exactly json.Marshal of the
// frame Frames would return, encoded straight from the log outside the
// series lock. Deterministic: map keys are sorted and every number
// derives from the simulated clock, so two same-seed runs produce
// byte-identical streams. A writer with a Grow method (bytes.Buffer,
// strings.Builder) is first grown by the stream's exact size, so an
// in-memory export allocates its output once instead of doubling into
// it.
func (ts *TimeSeries) WriteNDJSON(w io.Writer) error {
	v := ts.view(0)
	var e frameEncoder
	if g, ok := w.(interface{ Grow(int) }); ok {
		if n, err := e.size(&v); err == nil {
			g.Grow(n)
		}
	}
	return e.write(w, &v)
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

// pack writes the histogram as slot's log record entry at rec[p:] and
// returns the position after it.
func (h *logHist) pack(rec []uint64, p, slot int) int {
	rec[p] = uint64(slot) | uint64(len(h.cells))<<32
	rec[p+1], rec[p+2] = uint64(h.count), math.Float64bits(h.sum)
	rec[p+3], rec[p+4] = math.Float64bits(h.min), math.Float64bits(h.max)
	p += 5
	for _, c := range h.cells {
		rec[p], rec[p+1] = uint64(c.idx), uint64(c.n)
		p += 2
	}
	return p
}

// unpack loads the log record entry at rec[p:] into h and returns its
// slot and the position after it.
func (h *logHist) unpack(rec []uint64, p int) (slot, next int) {
	cells := rec[p+5 : p+5+2*int(rec[p]>>32)]
	h.count, h.sum = int64(rec[p+1]), math.Float64frombits(rec[p+2])
	h.min, h.max = math.Float64frombits(rec[p+3]), math.Float64frombits(rec[p+4])
	h.cells = h.cells[:0]
	for ; len(cells) > 0; cells = cells[2:] {
		h.cells = append(h.cells, histCell{idx: int(int64(cells[0])), n: int64(cells[1])})
	}
	return int(uint32(rec[p])), p + 5 + 2*len(h.cells)
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
