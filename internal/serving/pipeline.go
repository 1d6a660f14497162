package serving

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"ampsinf/internal/coordinator"
	"ampsinf/internal/obs"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// Event classes, in priority order at equal instants: stage completions
// settle before new stage starts, and both before fresh admissions, so
// freed pipeline slots and depth capacity are visible to the events
// that want them.
const (
	evFinish = iota
	evStage
	evAdmit
)

// fifo is an index queue over slab ids with an advancing head, so
// steady-state push/pop allocates nothing once capacity has grown.
type fifo struct {
	ids  []int32
	head int
}

func (f *fifo) push(id int32) { f.ids = append(f.ids, id) }

func (f *fifo) pop() int32 {
	id := f.ids[f.head]
	f.head++
	if f.head == len(f.ids) {
		f.ids = f.ids[:0]
		f.head = 0
	}
	return id
}

func (f *fifo) peek() (int32, bool) {
	if f.head == len(f.ids) {
		return 0, false
	}
	return f.ids[f.head], true
}

// pipeHandles are the staged executor's extra metric slots, resolved
// once per run like serveHandles. Per-stage busy totals are labeled by
// stage index, so their names are formatted here — once — instead of
// per stage event.
type pipeHandles struct {
	batches     obs.EventCounter
	tsBatchSize obs.SeriesHistHandle
	tsRunning   obs.SeriesGaugeHandle
	tsStageBusy []obs.SeriesTotalHandle
}

func newPipeHandles(mx *obs.Metrics, ts *obs.TimeSeries, width int) pipeHandles {
	ph := pipeHandles{
		batches:     obs.NewEventCounter(mx, ts, "serving_batches_total"),
		tsBatchSize: ts.HistHandle("serving_batch_size"),
		tsRunning:   ts.GaugeHandle("serving_pipeline_running"),
		tsStageBusy: make([]obs.SeriesTotalHandle, width),
	}
	for i := range ph.tsStageBusy {
		ph.tsStageBusy[i] = ts.TotalHandle(
			fmt.Sprintf("serving_stage_busy_seconds_total{stage=%q}", strconv.Itoa(i)))
	}
	return ph
}

// gaugeDedup skips rewriting a gauge when the (window, value) pair did
// not change: the gauge is last-write-wins per window, so the skipped
// write could not have changed any frame — same bytes, less work.
type gaugeDedup struct {
	win  int64
	val  int
	seen bool
}

func (g *gaugeDedup) changed(win int64, val int) bool {
	if g.seen && g.win == win && g.val == val {
		return false
	}
	g.seen, g.win, g.val = true, win, val
	return true
}

// unitCoalescer groups a lazy arrival source into batch units
// incrementally, draw-for-draw identical to coalesce(): the leader of
// each batch is the earliest uncoalesced arrival, one jittered window
// is drawn per batch in leader order, and followers join while the
// batch has room and arrive inside the window. Only the one-arrival
// lookahead is ever materialized, so a million-request trace coalesces
// in O(1) memory.
type unitCoalescer struct {
	src      sim.Source
	pol      BatchPolicy
	rng      *rand.Rand
	nextArr  time.Duration
	haveNext bool
	nextIdx  int
	lastArr  time.Duration
	// ctl, when set, widens the batch window while brownout holds the
	// wide-batch rung or below. The jitter draw happens regardless, so
	// the rng stream — and with it every batch after recovery — stays
	// aligned with an unwidened run.
	ctl *brownoutCtl
}

func newUnitCoalescer(src sim.Source, pol BatchPolicy, rng *rand.Rand) *unitCoalescer {
	c := &unitCoalescer{src: src, pol: pol, rng: rng}
	c.nextArr, c.haveNext = src.Next()
	return c
}

// unread counts the arrivals not yet coalesced into a unit.
func (c *unitCoalescer) unread() int {
	n := c.src.Remaining()
	if c.haveNext {
		n++
	}
	return n
}

// next yields the next batch unit, appending its members' arrivals into
// arrs (re-sliced from the front and returned, so callers can recycle
// the backing array). ok is false once the trace is exhausted.
func (c *unitCoalescer) next(arrs []time.Duration) (u batchUnit, _ []time.Duration, ok bool, err error) {
	arrs = arrs[:0]
	if !c.haveNext {
		return batchUnit{}, arrs, false, nil
	}
	if c.nextArr < c.lastArr {
		return batchUnit{}, arrs, false, fmt.Errorf("serving: arrivals not sorted at %d", c.nextIdx)
	}
	first := c.nextIdx
	lead := c.nextArr
	c.lastArr = c.nextArr
	arrs = append(arrs, c.nextArr)
	c.nextIdx++
	c.nextArr, c.haveNext = c.src.Next()
	if !c.pol.enabled() {
		return batchUnit{First: first, Size: 1, DispatchAt: lead}, arrs, true, nil
	}
	w := batchWindow(c.pol, c.rng)
	if f, ok := c.ctl.widenBatch(); ok {
		w = time.Duration(float64(w) * f)
	}
	deadline := satAdd(lead, w)
	for c.haveNext && len(arrs) < c.pol.MaxBatch && c.nextArr <= deadline {
		if c.nextArr < c.lastArr {
			return batchUnit{}, arrs, false, fmt.Errorf("serving: arrivals not sorted at %d", c.nextIdx)
		}
		c.lastArr = c.nextArr
		arrs = append(arrs, c.nextArr)
		c.nextIdx++
		c.nextArr, c.haveNext = c.src.Next()
	}
	u = batchUnit{First: first, Size: len(arrs)}
	if u.Size == c.pol.MaxBatch {
		// Full batch dispatches the moment its last member arrives.
		u.DispatchAt = arrs[len(arrs)-1]
	} else {
		u.DispatchAt = deadline
	}
	return u, arrs, true, nil
}

// stagedExec is the staged executor's pipeline (see scheduler): one
// slot per partition stage and the units queued for them.
type stagedExec struct {
	ph pipeHandles
	// freeAt[i] is when stage i's slot is next available, stageQ[i] the
	// units waiting for it in admission order. Only the fifo head holds a
	// live stage event.
	freeAt   []time.Duration
	stageQ   []fifo
	seq      int // numbers admissions
	stackBuf []*tensor.Tensor
}

func newStagedExec(cfg Config, width int) *stagedExec {
	return &stagedExec{
		ph:     newPipeHandles(cfg.Metrics, cfg.Series, width),
		freeAt: make([]time.Duration, width),
		stageQ: make([]fifo, width),
	}
}

// pushStage schedules the head unit of its next stage's queue; the
// slot-free and input-ready instants are both fixed at this point.
func (s *scheduler) pushStage(id int32, u *unit) {
	at := max(u.prevEnd, s.st.freeAt[u.next])
	s.evs.Push(sim.Event{At: at, Class: evStage, Seq: uint64(u.seq), ID: id})
}

// enqueueStage appends a unit to its next stage's queue, scheduling it
// immediately when it becomes the head.
func (s *scheduler) enqueueStage(id int32, u *unit) {
	q := &s.st.stageQ[u.next]
	q.push(id)
	if q.head == len(q.ids)-1 {
		s.pushStage(id, u)
	}
}

// beginStaged opens an admitted unit's staged job — stacking a batch's
// inputs on the tensor batch dimension — and queues it for stage 0.
func (s *scheduler) beginStaged(uid int32, u *unit, opts coordinator.StagedOptions) error {
	x := s.st
	in := s.input(u.First)
	if u.Size > 1 {
		x.stackBuf = append(x.stackBuf[:0], in)
		for k := 1; k < u.Size; k++ {
			x.stackBuf = append(x.stackBuf, s.input(u.First+k))
		}
		stacked, err := tensor.Stack(x.stackBuf)
		if err != nil {
			return fmt.Errorf("serving: batching requests %d..%d: %w", u.First, u.First+u.Size-1, err)
		}
		in = stacked
		x.ph.batches.Inc(u.start, 1)
	}
	x.ph.tsBatchSize.Observe(u.start, float64(u.Size))
	sj, err := u.dep.BeginStaged(in, opts)
	u.sj = sj
	u.seq = x.seq
	x.seq++
	if err != nil {
		return s.settle(uid, u, sj.Rep(), err)
	}
	u.next = 0
	u.prevEnd = u.start + sj.InputReady()
	s.running++
	s.enqueueStage(uid, u)
	return nil
}

// stageEvent pops and runs the staged executor's next event: a stage
// start, or the finish that settles a unit.
func (s *scheduler) stageEvent() error {
	x := s.st
	e, _ := s.evs.Pop()
	u := s.units.Get(e.ID)
	now := s.advance(e.At)
	s.ts.Advance(now)
	s.ctl.judge(s.ts, &s.h)
	s.applyBrownout(now)

	if e.Class == evFinish {
		s.running--
		jrep, err := u.sj.Finish(now - u.start)
		ferr := s.settle(e.ID, u, jrep, err)
		if err == nil {
			x.ph.tsRunning.Set(now, float64(s.running))
		}
		return ferr
	}

	i := u.next
	x.stageQ[i].pop() // e.ID: only the head holds a live event
	svc, err := u.sj.RunStage(now - u.start)
	x.freeAt[i] = now + svc
	if err != nil {
		s.running--
		if ferr := s.settle(e.ID, u, u.sj.Rep(), err); ferr != nil {
			return ferr
		}
	} else {
		u.prevEnd = now + svc
		u.next++
		// Stage utilization: the slot for partition stage i is busy for
		// svc from now — accounted in the window the stage started in.
		x.ph.tsStageBusy[i].Add(now, svc.Seconds())
		if u.next == s.width {
			s.evs.Push(sim.Event{At: u.prevEnd, Class: evFinish, Seq: uint64(u.seq), ID: e.ID})
		} else {
			s.enqueueStage(e.ID, u)
		}
		s.samplePeak(now)
	}
	// The old head ran and freeAt[i] moved: schedule the new head.
	if hid, ok := x.stageQ[i].peek(); ok {
		s.pushStage(hid, s.units.Get(hid))
	}
	return nil
}

// batchRideSpan is a follower member's trace: the usual request root
// (arrival, queue wait, backoffs) plus a batch-ride child covering the
// shared invocation's extent and naming the leader whose tree carries
// the actual spans and cost events. Followers hold no cost events of
// their own, so summing costs across all request traces still counts
// every charge exactly once.
func batchRideSpan(jr *JobResult, waits []time.Duration, leader, size int) *obs.Span {
	root := requestSpan(jr, waits, nil)
	ride := root.AddChild(&obs.Span{
		Name: "batch-ride", Kind: obs.KindBatch, Track: "serving",
		Start: jr.Start, Duration: jr.Done - jr.Start,
	})
	ride.SetAttr("leader", strconv.Itoa(leader))
	ride.SetAttr("batch", strconv.Itoa(size))
	return root
}
