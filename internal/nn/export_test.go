package nn

import (
	"time"

	"ampsinf/internal/tensor"
)

// ForwardTimed is Forward with each layer's eval timed: each receives
// the layer and how long its eval took.
func (m *Model) ForwardTimed(w Weights, input *tensor.Tensor, each func(l *Layer, d time.Duration)) (*tensor.Tensor, error) {
	return m.forwardRange(w, 1, len(m.Layers), input, func(l *Layer, w Weights, ins []*tensor.Tensor, mine []bool) (*tensor.Tensor, bool, error) {
		start := time.Now()
		t, own, err := m.eval(l, w, ins, mine)
		each(l, time.Since(start))
		return t, own, err
	})
}
