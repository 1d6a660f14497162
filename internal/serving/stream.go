package serving

import (
	"fmt"

	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// ServeStream serves a trace produced lazily by src — request i
// arrives at the i-th offset the source yields — with inputs built on
// demand by input(i). It is Serve with a folding result sink: the same
// scheduler and executors, so the same admission order, throttle
// backoffs, coalescing RNG draws, metrics and time-series emissions and
// meter totals — but no per-request results are retained and no span
// trees built. Settled requests fold straight into the report's
// aggregates and jobs run on the coordinator's lean path, so a
// million-request trace runs in O(backlog) memory under either executor
// (batch units are coalesced incrementally, one unit of lookahead beyond
// the admission frontier).
//
// Its report equals Serve's but for Jobs, field for field and bit for
// bit: a job's cost is its calls' meter brackets whether it runs lean
// or traced, and both entry points fold requests as they settle. Span
// sampling is rejected — it exists to retain trees, which contradicts
// the no-retention contract.
func ServeStream(cfg Config, src sim.Source, input func(int) *tensor.Tensor) (*Report, error) {
	requests := 0
	if src != nil {
		requests = src.Remaining()
	}
	if err := validate(cfg, requests); err != nil {
		return nil, err
	}
	if input == nil {
		return nil, fmt.Errorf("serving: streaming serve needs an input builder")
	}
	if cfg.Sample.enabled() {
		return nil, fmt.Errorf("serving: streaming serve keeps no span trees to sample")
	}
	return serve(cfg, src, input, false)
}
