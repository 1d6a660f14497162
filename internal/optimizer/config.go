package optimizer

import (
	"fmt"
	"time"

	"ampsinf/internal/nn"
)

// PlanForConfig builds a Plan from an explicit configuration — segment
// boundaries and per-partition memory blocks — validating platform
// feasibility. Baselines and manual deployments use this to flow through
// the same estimation and deployment machinery as the optimizer's own
// plans. segBounds must start at 0 and end at the segment count;
// memories has one block per partition.
func (o *Optimizer) PlanForConfig(segBounds []int, memories []int) (*Plan, error) {
	S := len(o.segs)
	if len(segBounds) < 2 || segBounds[0] != 0 || segBounds[len(segBounds)-1] != S {
		return nil, fmt.Errorf("optimizer: segment bounds %v must span [0, %d]", segBounds, S)
	}
	if len(memories) != len(segBounds)-1 {
		return nil, fmt.Errorf("optimizer: %d memories for %d partitions", len(memories), len(segBounds)-1)
	}
	res := dpResult{bounds: segBounds}
	for i, mem := range memories {
		a, b := segBounds[i], segBounds[i+1]
		if a >= b {
			return nil, fmt.Errorf("optimizer: empty partition %d", i)
		}
		sc := &o.table[a][b]
		if !sc.capsOK {
			return nil, fmt.Errorf("optimizer: partition %d (segments [%d, %d)) violates the platform limits", i, a, b)
		}
		j := -1
		for k, block := range o.blocks {
			if block == mem {
				j = k
				break
			}
		}
		if j < 0 {
			return nil, fmt.Errorf("optimizer: %d MB is not a valid memory block", mem)
		}
		if _, _, ok := o.blockTimeCost(sc, j); !ok {
			return nil, fmt.Errorf("optimizer: %d MB is infeasible for partition %d (working set or timeout)", mem, i)
		}
		res.memIdx = append(res.memIdx, j)
	}
	return o.assemble(res, 0).plan, nil
}

// span returns the table cell of segments [a, b), or nil when the range
// is not a span of the model.
func (o *Optimizer) span(a, b int) *spanChoice {
	if a < 0 || b > len(o.segs) || a >= b {
		return nil
	}
	return &o.table[a][b]
}

// FeasibleMemories returns the memory blocks allowed for the partition
// covering segments [a, b), or nil when the span itself is infeasible.
func (o *Optimizer) FeasibleMemories(a, b int) []int {
	sc := o.span(a, b)
	if sc == nil || !sc.capsOK {
		return nil
	}
	var out []int
	for j := range o.blocks {
		if _, _, ok := o.blockTimeCost(sc, j); ok {
			out = append(out, o.blocks[j])
		}
	}
	return out
}

// SpanFeasible reports whether segments [a, b) can form a partition at
// all (deployment, temp storage, layer cap, ≥1 feasible block).
func (o *Optimizer) SpanFeasible(a, b int) bool {
	sc := o.span(a, b)
	return sc != nil && sc.feasible
}

// SpanEstimate returns (T_i, S_i) for segments [a, b) at the given block,
// excluding the position-dependent storage term.
func (o *Optimizer) SpanEstimate(a, b, memMB int) (time.Duration, float64, error) {
	sc := o.span(a, b)
	if sc == nil {
		return 0, 0, fmt.Errorf("optimizer: [%d, %d) is not a span of the model's %d segments", a, b, len(o.segs))
	}
	for j, block := range o.blocks {
		if block == memMB {
			t, cost, ok := o.blockTimeCost(sc, j)
			if !ok {
				return 0, 0, fmt.Errorf("optimizer: %d MB infeasible for span [%d, %d)", memMB, a, b)
			}
			return t, cost, nil
		}
	}
	return 0, 0, fmt.Errorf("optimizer: invalid block %d MB", memMB)
}

// Model returns the optimizer's model.
func (o *Optimizer) Model() *nn.Model { return o.req.Model }
