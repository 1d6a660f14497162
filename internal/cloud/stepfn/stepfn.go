// Package stepfn simulates AWS Step Functions as used by the Serfer
// baseline: a standard state machine that invokes one Lambda function per
// state, paying a per-transition fee and — as the paper's footnote 2
// measured — a substantial per-transition latency (≈15 s over a ten-state
// workflow), which is exactly why AMPS-Inf avoids Step Functions.
package stepfn

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/obs"
)

// State is one task state: it invokes FunctionName with the current
// payload and passes the response to the next state.
type State struct {
	Name         string
	FunctionName string
}

// Machine is a linear standard workflow.
type Machine struct {
	Name   string
	States []State
}

// Engine executes state machines against a Lambda platform.
type Engine struct {
	platform *lambda.Platform
	meter    *billing.Meter
	// TransitionDelay defaults to the measured per-transition latency.
	TransitionDelay time.Duration
	// Tracer, when set (and installed as the meter's observer), collects
	// each execution's span tree with exact cost attribution.
	Tracer *obs.Tracer
	// Metrics, when set, counts transitions as executions run.
	Metrics *obs.Metrics
}

// NewEngine creates an execution engine.
func NewEngine(platform *lambda.Platform, meter *billing.Meter) *Engine {
	return &Engine{platform: platform, meter: meter, TransitionDelay: pricing.StepFnTransitionDelay}
}

// Meter returns the engine's billing meter.
func (e *Engine) Meter() *billing.Meter { return e.meter }

// Execution reports one state-machine run.
type Execution struct {
	// Duration is total simulated wall time: transitions + invocations.
	Duration time.Duration
	// TransitionTime is the part spent in state transitions alone.
	TransitionTime time.Duration
	// Transitions is the number of billed state transitions (start +
	// one per state).
	Transitions int
	// Cost sums transition fees and invocation costs.
	Cost   float64
	Output []byte
	// Trace is the execution's span tree (transitions and states on the
	// simulated clock); nil when the execution failed mid-machine.
	Trace *obs.Span
}

// Run executes the machine on input. Each state transition adds the
// engine's transition delay and fee; each state invokes its function
// synchronously (self-billing).
func (e *Engine) Run(m Machine, input []byte) (*Execution, error) {
	if len(m.States) == 0 {
		return nil, fmt.Errorf("stepfn: machine %q has no states", m.Name)
	}
	tr := e.Tracer
	tr.BeginJob()
	var root *obs.Span
	defer func() { tr.EndJob(root) }()
	span := &obs.Span{Name: "stepfn:" + m.Name, Kind: obs.KindJob, Track: "stepfn"}

	exec := &Execution{}
	transitions := e.Metrics.CounterHandle("stepfn_transitions_total")
	payload := input
	var cursor time.Duration
	// The start transition plus one per state (AWS bills transitions
	// into each state).
	for _, st := range m.States {
		cursor = e.transition(exec, span, cursor, transitions)

		bkt := tr.NewBucket()
		prev := tr.SetSink(bkt)
		res, err := e.platform.Invoke(st.FunctionName, payload, lambda.InvokeOptions{})
		tr.SetSink(prev)
		if err != nil {
			return exec, fmt.Errorf("stepfn: state %q: %w", st.Name, err)
		}
		ss := span.AddChild(&obs.Span{
			Name: st.Name, Kind: obs.KindState, Track: st.FunctionName,
			Start: cursor, Duration: res.Duration,
		})
		ss.SetAttr("function", st.FunctionName)
		ss.SetAttr("memory_mb", fmt.Sprintf("%d", res.MemoryMB))
		ss.SetAttr("cold", fmt.Sprintf("%t", res.ColdStart))
		ss.CostEvents = append(ss.CostEvents, bkt.Events()...)
		ss.Cost = bkt.Total()
		phaseCursor := cursor
		for _, ph := range res.Phases {
			ss.AddChild(&obs.Span{
				Name: ph.Name, Kind: obs.KindPhase, Track: st.FunctionName,
				Start: phaseCursor, Duration: ph.Duration,
			})
			phaseCursor += ph.Duration
		}
		cursor += res.Duration
		exec.Duration += res.Duration
		exec.Cost += res.Cost
		payload = res.Response
	}
	// Final transition to the terminal state.
	cursor = e.transition(exec, span, cursor, transitions)

	span.Duration = cursor
	exec.Output = payload
	exec.Trace = span
	root = span
	return exec, nil
}

// transition accounts one billed state transition, its span and its
// count.
func (e *Engine) transition(exec *Execution, span *obs.Span, cursor time.Duration, count obs.CounterHandle) time.Duration {
	exec.Transitions++
	exec.TransitionTime += e.TransitionDelay
	exec.Duration += e.TransitionDelay
	bkt := e.Tracer.NewBucket()
	prev := e.Tracer.SetSink(bkt)
	e.meter.Add("stepfn:transitions", pricing.StepFnTransition)
	e.Tracer.SetSink(prev)
	exec.Cost += pricing.StepFnTransition
	count.Inc(1)
	ts := span.AddChild(&obs.Span{
		Name: "transition", Kind: obs.KindTransition, Track: "stepfn",
		Start: cursor, Duration: e.TransitionDelay,
	})
	ts.CostEvents = append(ts.CostEvents, bkt.Events()...)
	ts.Cost = bkt.Total()
	return cursor + e.TransitionDelay
}
