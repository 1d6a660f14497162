package obs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestWriteSectionsMatchSingleWrites property-tests the held-lock write
// sections against the writes they batch. One pseudo-random sequence of
// Inc/Add/Set/Observe over random handles and instants — out-of-order
// and negative instants, instants behind the flush point, zero and
// negative values, NaN and ±Inf observations, clock advances in
// between — goes through single writes into one registry pair, and
// through sections of random length into another. Sections also carry
// EventCounters, nil handles and handles of a third registry pair,
// which must be written through their own lock: that pair is compared
// with a single-write twin as well. Every snapshot and every flushed
// frame (as delivered to a subscriber, and as listed by Frames) must be
// reflect.DeepEqual, while a goroutine snapshots, renders and lists
// frames throughout (under -race it is the check that no slot is
// written outside its registry's lock).
func TestWriteSectionsMatchSingleWrites(t *testing.T) {
	const (
		names  = 5
		ops    = 6000
		window = 200 * time.Millisecond
	)
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			type side struct {
				mx       *Metrics
				ts       *TimeSeries
				ctrs     []CounterHandle
				tots     []TotalHandle
				gauges   []GaugeHandle
				hists    []HistHandle
				tsCtrs   []SeriesCounterHandle
				tsTots   []SeriesTotalHandle
				tsGauges []SeriesGaugeHandle
				tsHists  []SeriesHistHandle
				events   []EventCounter
				flushed  []*WindowFrame
			}
			name := func(kind string, i int) string { return fmt.Sprintf("sect_%s_%d", kind, i) }
			newSide := func() *side {
				s := &side{mx: NewMetrics(), ts: NewTimeSeries(window)}
				s.ts.Subscribe(func(f *WindowFrame) { s.flushed = append(s.flushed, f) })
				for i := 0; i < names; i++ {
					s.ctrs = append(s.ctrs, s.mx.CounterHandle(name("ctr", i)))
					s.tots = append(s.tots, s.mx.TotalHandle(name("tot", i)))
					s.gauges = append(s.gauges, s.mx.GaugeHandle(name("gauge", i)))
					s.hists = append(s.hists, s.mx.HistHandle(name("hist", i)))
					s.tsCtrs = append(s.tsCtrs, s.ts.CounterHandle(name("ctr", i)))
					s.tsTots = append(s.tsTots, s.ts.TotalHandle(name("tot", i)))
					s.tsGauges = append(s.tsGauges, s.ts.GaugeHandle(name("gauge", i)))
					s.tsHists = append(s.tsHists, s.ts.HistHandle(name("hist", i)))
					s.events = append(s.events, NewEventCounter(s.mx, s.ts, name("event", i)))
				}
				return s
			}
			// single and section are the pair under test; the foreign pair's
			// handles ride along in section's write sections.
			single, section := newSide(), newSide()
			foreignSingle, foreign := newSide(), newSide()

			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, s := range []*side{section, foreign} {
						if err := WritePrometheus(io.Discard, s.mx.Snapshot()); err != nil {
							t.Error(err)
						}
						s.ts.Frames()
					}
				}
			}()

			rng := rand.New(rand.NewSource(seed))
			var nilMx MetricsWriter // a section on a nil registry holds nothing
			var nilTs SeriesWriter
			mw, sw := section.mx.Begin(), section.ts.Begin()
			clock := time.Duration(0)
			for op := 0; op < ops; op++ {
				if rng.Intn(6) == 0 { // close the sections, maybe advance, reopen
					mw.End()
					sw.End()
					// Compared at every close, not only at the end: a slot's
					// "recorded" flag must come up with its first write, even
					// when that write went through a section.
					if want, got := single.mx.Snapshot(), section.mx.Snapshot(); !reflect.DeepEqual(want, got) {
						t.Fatalf("op %d: snapshots differ:\nsingle  %+v\nsection %+v", op, want, got)
					}
					if rng.Intn(3) == 0 {
						clock += time.Duration(rng.Intn(int(2 * window)))
						for _, s := range []*side{single, section, foreignSingle, foreign} {
							s.ts.Advance(clock)
						}
					}
					// One time in eight the sections are a nil registry's: every
					// handle is then foreign to them and takes its own lock.
					if rng.Intn(8) != 0 {
						mw, sw = section.mx.Begin(), section.ts.Begin()
					} else {
						mw, sw = nilMx, nilTs
					}
				}
				i := rng.Intn(names)
				at := clock + time.Duration(rng.Intn(int(3*window))) - window
				// Which pair the write lands on: section's own handles, the
				// foreign pair's, or nil handles (no-ops on both sides).
				dst, ref := section, single
				switch rng.Intn(6) {
				case 0:
					dst, ref = foreign, foreignSingle
				case 1:
					dst, ref = &side{}, nil
				}
				switch rng.Intn(5) {
				case 0:
					d := int64(rng.Intn(4)) - 1
					if ref != nil {
						ref.ctrs[i].Inc(d)
						ref.tsCtrs[i].Inc(at, d)
						mw.Inc(dst.ctrs[i], d)
						sw.Inc(dst.tsCtrs[i], at, d)
					} else {
						mw.Inc(CounterHandle{}, d)
						sw.Inc(SeriesCounterHandle{}, at, d)
					}
				case 1:
					v := rng.NormFloat64()
					if ref != nil {
						ref.tots[i].Add(v)
						ref.tsTots[i].Add(at, v)
						mw.Add(dst.tots[i], v)
						sw.Add(dst.tsTots[i], at, v)
					} else {
						mw.Add(TotalHandle{}, v)
						sw.Add(SeriesTotalHandle{}, at, v)
					}
				case 2:
					v := float64(rng.Intn(5) - 2)
					if ref != nil {
						ref.gauges[i].Set(v)
						ref.tsGauges[i].Set(at, v)
						mw.Set(dst.gauges[i], v)
						sw.Set(dst.tsGauges[i], at, v)
					} else {
						mw.Set(GaugeHandle{}, v)
						sw.Set(SeriesGaugeHandle{}, at, v)
					}
				case 3:
					v := rng.ExpFloat64() - 0.2 // v ≤ 0 one time in five
					switch rng.Intn(12) {
					case 0:
						v = math.NaN()
					case 1:
						v = math.Inf(1 - 2*rng.Intn(2))
					}
					if ref != nil {
						ref.hists[i].Observe(v)
						ref.tsHists[i].Observe(at, v)
						mw.Observe(dst.hists[i], v)
						sw.Observe(dst.tsHists[i], at, v)
					} else {
						mw.Observe(HistHandle{}, v)
						sw.Observe(SeriesHistHandle{}, at, v)
					}
				case 4:
					n := int64(rng.Intn(3))
					if ref != nil {
						ref.events[i].Inc(at, n)
						mw.IncEvent(dst.events[i], n)
						sw.IncEvent(dst.events[i], at, n)
					} else {
						mw.IncEvent(EventCounter{}, n)
						sw.IncEvent(EventCounter{}, at, n)
					}
				}
			}
			mw.End()
			sw.End()
			close(stop)
			readers.Wait()

			for _, pair := range []struct {
				what      string
				want, got *side
			}{{"own handles", single, section}, {"foreign handles", foreignSingle, foreign}} {
				pair.want.ts.Close()
				pair.got.ts.Close()
				if want, got := pair.want.mx.Snapshot(), pair.got.mx.Snapshot(); !reflect.DeepEqual(want, got) {
					t.Errorf("%s: snapshots differ:\nsingle  %+v\nsection %+v", pair.what, want, got)
				}
				if len(pair.want.flushed) < 20 {
					t.Fatalf("%s: only %d frames flushed; the sequence needs many windows", pair.what, len(pair.want.flushed))
				}
				if !reflect.DeepEqual(pair.want.flushed, pair.got.flushed) {
					t.Errorf("%s: flushed frames differ (%d against %d)", pair.what, len(pair.want.flushed), len(pair.got.flushed))
				}
				if !reflect.DeepEqual(pair.want.ts.Frames(), pair.got.ts.Frames()) {
					t.Errorf("%s: listed frames differ", pair.what)
				}
			}
		})
	}
}
