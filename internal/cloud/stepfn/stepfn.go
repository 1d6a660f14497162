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

// Engine executes state machines against a Lambda platform. Each
// transition takes pricing.StepFnTransitionDelay.
type Engine struct {
	platform *lambda.Platform
	meter    *billing.Meter
	// Metrics, when set, counts transitions as executions run.
	Metrics *obs.Metrics
}

// NewEngine creates an execution engine.
func NewEngine(platform *lambda.Platform, meter *billing.Meter) *Engine {
	return &Engine{platform: platform, meter: meter}
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
}

// Run executes the machine on input. Each state transition adds the
// transition delay and fee; each state invokes its function synchronously
// (self-billing).
func (e *Engine) Run(m Machine, input []byte) (*Execution, error) {
	if len(m.States) == 0 {
		return nil, fmt.Errorf("stepfn: machine %q has no states", m.Name)
	}
	exec := &Execution{}
	transitions := e.Metrics.CounterHandle("stepfn_transitions_total")
	payload := input
	// The start transition plus one per state (AWS bills transitions
	// into each state).
	for _, st := range m.States {
		e.transition(exec, transitions)
		res, err := e.platform.Invoke(st.FunctionName, payload, lambda.InvokeOptions{})
		if err != nil {
			return exec, fmt.Errorf("stepfn: state %q: %w", st.Name, err)
		}
		exec.Duration += res.Duration
		exec.Cost += res.Cost
		payload = res.Response
	}
	// Final transition to the terminal state.
	e.transition(exec, transitions)
	exec.Output = payload
	return exec, nil
}

// transition accounts one billed state transition and its count.
func (e *Engine) transition(exec *Execution, count obs.CounterHandle) {
	exec.Transitions++
	exec.TransitionTime += pricing.StepFnTransitionDelay
	exec.Duration += pricing.StepFnTransitionDelay
	e.meter.Add("stepfn:transitions", pricing.StepFnTransition)
	exec.Cost += pricing.StepFnTransition
	count.Inc(1)
}
