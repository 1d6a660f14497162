// Package obs is the deterministic observability layer of the
// framework: hierarchical spans on the simulated clock (job → partition
// invocation → phases, with retry attempts and backoff waits as child
// spans and injected faults as span events), a metrics registry of
// counters/gauges/fixed-bound histograms, and exporters (Chrome
// trace-event JSON loadable in Perfetto, a plain span dump, and a text
// phase waterfall).
//
// Everything in this package is driven by simulated time, so two runs
// with the same seeds produce byte-identical exports. Every span
// carries a cost attribution — the exact billing.Meter events charged
// while the span's operation ran — and SumCostsAll replicates the
// meter's summation order so that the span trees of every job served
// against one meter reproduce its total bit-for-bit (see the
// cost-attribution invariant in DESIGN.md §8).
package obs

import (
	"fmt"
	"sort"
	"time"
)

// Span kinds. Exporters and the waterfall renderer key their styling on
// these; anything else is rendered generically.
const (
	KindJob      = "job"
	KindUpload   = "upload"
	KindInvoke   = "invoke"
	KindAttempt  = "attempt"
	KindPhase    = "phase"
	KindWait     = "wait"
	KindBackoff  = "backoff"
	KindDispatch = "dispatch"
	KindBatch    = "batch"
)

// Span is one named interval of simulated time. Start is absolute
// within the span tree's job (the root starts at 0); children carry
// absolute starts too, so exporters never re-derive offsets.
type Span struct {
	Name     string        `json:"name"`
	Kind     string        `json:"kind"`
	Track    string        `json:"track"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Attrs are deterministic string attributes (function name, memory
	// block, cold/warm, attempt number, bytes moved).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Cost is the dollars attributed to this span alone (children not
	// included): the chronological sum of CostEvents.
	Cost float64 `json:"cost_usd"`
	// CostEvents are the exact billing meter charges attributed to this
	// span, tagged with a global sequence number so SumCostsAll can replay
	// them in the meter's own order.
	CostEvents []CostEvent `json:"cost_events,omitempty"`
	Events     []Event     `json:"events,omitempty"`
	Children   []*Span     `json:"children,omitempty"`
}

// Event is a point-in-time annotation on a span (e.g. an injected
// fault).
type Event struct {
	Name  string            `json:"name"`
	At    time.Duration     `json:"at_ns"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// End returns the span's absolute end time.
func (s *Span) End() time.Duration { return s.Start + s.Duration }

// SetAttr sets one attribute, allocating the map on first use.
func (s *Span) SetAttr(k, v string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// AddChild appends c and returns it.
func (s *Span) AddChild(c *Span) *Span {
	s.Children = append(s.Children, c)
	return c
}

// AddEvent records a point event on the span.
func (s *Span) AddEvent(name string, at time.Duration, attrs map[string]string) {
	s.Events = append(s.Events, Event{Name: name, At: at, Attrs: attrs})
}

// Walk visits the span and all descendants depth-first in child order.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// CountSpans returns the total number of spans across the given trees.
func CountSpans(roots []*Span) int {
	n := 0
	for _, r := range roots {
		r.Walk(func(*Span) { n++ })
	}
	return n
}

// Shift rebases a span tree by delta: every span start and event
// offset moves together, so a tree built with its job's start as time
// zero can be placed at an absolute instant on a longer serving
// timeline without disturbing any internal geometry.
func Shift(root *Span, delta time.Duration) {
	root.Walk(func(s *Span) {
		s.Start += delta
		for i := range s.Events {
			s.Events[i].At += delta
		}
	})
}

// SumCostsAll totals the cost attributed across span trees, computed
// exactly the way billing.Meter.Total computes it: events are replayed
// in their global charge order, accumulated per category, and the
// per-category totals are summed in sorted-category order. For the
// trees of every job served against one shared meter that started
// empty, the result equals Meter.Total bit-for-bit — the
// cost-attribution invariant.
func SumCostsAll(roots []*Span) float64 {
	var evs []CostEvent
	for _, root := range roots {
		root.Walk(func(s *Span) { evs = append(evs, s.CostEvents...) })
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	perCat := make(map[string]float64)
	cats := make([]string, 0, 8)
	for _, e := range evs {
		if _, ok := perCat[e.Category]; !ok {
			cats = append(cats, e.Category)
		}
		perCat[e.Category] += e.Amount
	}
	sort.Strings(cats)
	var t float64
	for _, c := range cats {
		t += perCat[c]
	}
	return t
}

// ValidateTree checks the structural timing invariants of a span tree:
// non-negative durations, every child contained within its parent, and
// siblings that share a track not overlapping (spans on different
// tracks — the overlapped eager schedule — may overlap freely).
func ValidateTree(root *Span) error {
	if root == nil {
		return fmt.Errorf("obs: nil span tree")
	}
	return validateSpan(root)
}

func validateSpan(s *Span) error {
	if s.Duration < 0 {
		return fmt.Errorf("obs: span %q has negative duration %v", s.Name, s.Duration)
	}
	for _, c := range s.Children {
		if c.Start < s.Start || c.End() > s.End() {
			return fmt.Errorf("obs: child %q [%v, %v) escapes parent %q [%v, %v)",
				c.Name, c.Start, c.End(), s.Name, s.Start, s.End())
		}
		if err := validateSpan(c); err != nil {
			return err
		}
	}
	// Same-track siblings must form a sequence.
	byTrack := make(map[string][]*Span)
	tracks := make([]string, 0, 4)
	for _, c := range s.Children {
		if _, ok := byTrack[c.Track]; !ok {
			tracks = append(tracks, c.Track)
		}
		byTrack[c.Track] = append(byTrack[c.Track], c)
	}
	for _, track := range tracks {
		sibs := append([]*Span(nil), byTrack[track]...)
		sort.SliceStable(sibs, func(i, j int) bool { return sibs[i].Start < sibs[j].Start })
		for i := 0; i+1 < len(sibs); i++ {
			if sibs[i+1].Start < sibs[i].End() {
				return fmt.Errorf("obs: siblings %q [%v, %v) and %q [%v, %v) overlap on track %q",
					sibs[i].Name, sibs[i].Start, sibs[i].End(),
					sibs[i+1].Name, sibs[i+1].Start, sibs[i+1].End(), track)
			}
		}
	}
	return nil
}
