package obs

import "sync"

// CostEvent is one exact billing charge attributed to a span. Seq is a
// global monotonically increasing sequence number assigned in charge
// order, so SumCostsAll can replay events exactly as the meter folded
// them.
type CostEvent struct {
	Seq      uint64  `json:"seq"`
	Category string  `json:"category"`
	Amount   float64 `json:"amount_usd"`
}

// CostBucket accumulates the charges of one operation until the span
// builder attaches them to a span. All methods are nil-safe so callers
// without a tracer pay nothing.
type CostBucket struct {
	events []CostEvent
}

// Events returns the bucket's charges in charge order.
func (b *CostBucket) Events() []CostEvent {
	if b == nil {
		return nil
	}
	return b.events
}

// Tracer collects job span trees and attributes billing charges to the
// current cost sink. Install it on a meter with
// meter.SetObserver(tracer.RecordCost); the coordinator then switches
// the sink around every operation it bills.
//
// Calls into traced jobs are serialized: BeginJob/EndJob bracket each
// synchronous call into a job under a mutex, so concurrent jobs on one
// deployment cannot cross-attribute their charges (untraced jobs — nil
// tracer — run fully concurrently, as every method is nil-safe).
type Tracer struct {
	mu   sync.Mutex
	seq  uint64
	sink *CostBucket

	jobMu sync.Mutex

	jobsMu sync.Mutex
	jobs   []*Span
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// RecordCost is the billing observer: it attributes one charge to the
// current sink (dropping it when no sink is active, e.g. charges from
// outside any traced job). Safe for concurrent use; called
// synchronously by the meter.
func (t *Tracer) RecordCost(category string, amount float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	if t.sink == nil {
		return
	}
	t.sink.events = append(t.sink.events, CostEvent{Seq: t.seq, Category: category, Amount: amount})
}

// NewBucket returns a fresh cost bucket (nil from a nil tracer).
func (t *Tracer) NewBucket() *CostBucket {
	if t == nil {
		return nil
	}
	return &CostBucket{}
}

// SetSink makes b the destination for subsequent charges and returns
// the previous sink so callers can restore it.
func (t *Tracer) SetSink(b *CostBucket) *CostBucket {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev := t.sink
	t.sink = b
	return prev
}

// BeginJob serializes calls into traced jobs: it blocks until no other
// such call is in flight. Every BeginJob must be paired with exactly
// one EndJob.
func (t *Tracer) BeginJob() {
	if t == nil {
		return
	}
	t.jobMu.Lock()
}

// EndJob collects the span tree of a job the call finished (nil for a
// call that finished none, or a job that built no tree) and releases
// the job lock.
func (t *Tracer) EndJob(root *Span) {
	if t == nil {
		return
	}
	if root != nil {
		t.jobsMu.Lock()
		t.jobs = append(t.jobs, root)
		t.jobsMu.Unlock()
	}
	t.jobMu.Unlock()
}

// Jobs returns the collected job span trees in completion order.
func (t *Tracer) Jobs() []*Span {
	if t == nil {
		return nil
	}
	t.jobsMu.Lock()
	defer t.jobsMu.Unlock()
	return append([]*Span(nil), t.jobs...)
}
