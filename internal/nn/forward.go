package nn

import (
	"fmt"

	"ampsinf/internal/tensor"
)

// Forward executes the whole model on input and returns the final output.
func (m *Model) Forward(w Weights, input *tensor.Tensor) (*tensor.Tensor, error) {
	return m.ForwardRange(w, 1, len(m.Layers), input)
}

// ForwardRange executes layers in topological positions [lo, hi) — one
// model partition. The partition's entry tensor is input (the output of
// layer lo-1, or the model input when lo == 1); the partition must be a
// valid segment range, i.e. no layer inside references an output produced
// before lo-1 (see CutPoints). The output of layer hi-1 is returned.
//
// Neither input nor w is written. An activation produced inside the
// range, though, is overwritten by the elementwise layer that consumes
// it last (batch norm, add, an activation, or one fused behind a compute
// layer) instead of a new tensor being made for every such layer.
func (m *Model) ForwardRange(w Weights, lo, hi int, input *tensor.Tensor) (*tensor.Tensor, error) {
	return m.forwardRange(w, lo, hi, input, m.eval)
}

// evalFunc computes one layer, as (*Model).eval does.
type evalFunc func(l *Layer, w Weights, ins []*tensor.Tensor, mine []bool) (*tensor.Tensor, bool, error)

// forwardRange is ForwardRange with each layer computed by eval.
func (m *Model) forwardRange(w Weights, lo, hi int, input *tensor.Tensor, eval evalFunc) (*tensor.Tensor, error) {
	if lo < 1 || hi > len(m.Layers) || lo >= hi {
		return nil, fmt.Errorf("nn: invalid layer range [%d, %d) of %d", lo, hi, len(m.Layers))
	}
	// Activations live in a map keyed by producer name. The entry tensor
	// is registered under the name of layer lo-1 (input layer for lo==1).
	acts := map[string]*tensor.Tensor{m.Layers[lo-1].Name: input}
	// owned names the activations whose memory was allocated inside this
	// pass and is shared with no other live activation, so that the last
	// consumer may write into it. The entry tensor never is: it is the
	// caller's.
	owned := map[string]bool{}

	// Reference counts: free activations when their last in-range consumer
	// has executed, bounding peak memory the way a real runtime would.
	refs := make(map[string]int)
	for i := lo; i < hi; i++ {
		for _, in := range m.Layers[i].Inputs {
			refs[in]++
		}
	}

	var out *tensor.Tensor
	for i := lo; i < hi; i++ {
		l := m.Layers[i]
		ins := make([]*tensor.Tensor, len(l.Inputs))
		mine := make([]bool, len(l.Inputs)) // input j is this layer's to overwrite
		for j, name := range l.Inputs {
			t, ok := acts[name]
			if !ok {
				return nil, fmt.Errorf("nn: layer %q needs %q, which is outside partition [%d, %d) — not a valid cut", l.Name, name, lo, hi)
			}
			ins[j], mine[j] = t, owned[name] && refs[name] == 1
		}
		t, own, err := eval(l, w, ins, mine)
		if err != nil {
			return nil, err
		}
		acts[l.Name], out = t, t
		if own {
			owned[l.Name] = true
		}
		for _, name := range l.Inputs {
			if !own {
				// The output is a view of an input that may live on under
				// its own name: two names for one memory, neither writable.
				delete(owned, name)
			}
			refs[name]--
			if refs[name] == 0 {
				delete(acts, name)
			}
		}
	}
	return out, nil
}

// eval computes layer l from ins; mine[j] says ins[j] may be
// overwritten. It reports whether the result's memory is the result's
// alone: true for anything eval allocated or was allowed to overwrite,
// false for a view of an input it was not.
func (m *Model) eval(l *Layer, w Weights, ins []*tensor.Tensor, mine []bool) (t *tensor.Tensor, owned bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("nn: layer %q (%v): %v", l.Name, l.Kind, r)
		}
	}()
	ws := w[l.Name]
	need := len(m.WeightSpecs(l))
	if len(ws) != need {
		return nil, false, fmt.Errorf("nn: layer %q has %d weight tensors, want %d", l.Name, len(ws), need)
	}
	x := ins[0]
	owned = true
	switch l.Kind {
	case KindInput, KindActivation, KindDropout:
		t, owned = x, mine[0]
	case KindFlatten:
		t, owned = tensor.Flatten(x), mine[0]
	case KindConv2D:
		t = tensor.Conv2D(x, ws[0], ws[1], l.Stride, l.Pad)
	case KindDepthwiseConv2D:
		t = tensor.DepthwiseConv2D(x, ws[0], ws[1], l.Stride, l.Pad)
	case KindSeparableConv2D:
		t = tensor.SeparableConv2D(x, ws[0], ws[1], ws[2], l.Stride, l.Pad)
	case KindDense:
		t = tensor.Dense(x, ws[0], ws[1])
	case KindBatchNorm:
		t = tensor.BatchNormTo(dstFor(x, mine[0]), x, ws[0], ws[1], ws[2], ws[3], l.Eps)
	case KindMaxPool:
		t = tensor.MaxPool2D(x, l.KH, l.Stride, l.Pad)
	case KindAvgPool:
		t = tensor.AvgPool2D(x, l.KH, l.Stride, l.Pad)
	case KindGlobalAvgPool:
		t = tensor.GlobalAvgPool2D(x)
	case KindZeroPad:
		t = tensor.ZeroPad2D(x, l.PadT, l.PadB, l.PadL, l.PadR)
	case KindAdd:
		t, owned = x, mine[0]
		for j, o := range ins[1:] {
			// The sum lands in the running total once that is owned,
			// else in this operand if it may be overwritten.
			sum := t
			if !owned {
				sum = dstFor(o, mine[j+1])
			}
			t, owned = tensor.AddTo(sum, t, o), true
		}
	case KindConcat:
		t = tensor.ConcatChannels(ins...)
	case KindLayerNorm:
		t = tensor.LayerNorm(x, ws[0], ws[1], l.Eps)
	case KindSelfAttention:
		t = tensor.SelfAttention(x, ws[0], ws[1], ws[2], ws[3], ws[4], ws[5], ws[6], ws[7], l.Heads)
	case KindTimeDense:
		n, tl := x.Shape()[0], x.Shape()[1]
		flat := tensor.Dense(x.Reshape(n*tl, x.Shape()[2]), ws[0], ws[1])
		t = flat.Reshape(n, tl, l.Filters)
	default:
		return nil, false, fmt.Errorf("nn: layer %q has unknown kind %v", l.Name, l.Kind)
	}
	if l.Activation != ActNone {
		t, owned = applyAct(dstFor(t, owned), t, l.Activation), true
	}
	if !t.Shape().Equal(batchAdjusted(l.OutShape, ins[0].Shape())) {
		return nil, false, fmt.Errorf("nn: layer %q produced shape %v, inferred %v", l.Name, t.Shape(), l.OutShape)
	}
	return t, owned, nil
}

// batchAdjusted replaces the reference batch dim (1) with the runtime one.
func batchAdjusted(inferred, runtimeIn tensor.Shape) tensor.Shape {
	s := inferred.Clone()
	if len(s) > 0 && len(runtimeIn) > 0 {
		s[0] = runtimeIn[0]
	}
	return s
}

// dstFor is where an elementwise layer writes its result for x: over x
// itself when that is allowed.
func dstFor(x *tensor.Tensor, mine bool) *tensor.Tensor {
	if mine {
		return x
	}
	return tensor.New(x.Shape()...)
}

// applyAct writes activation a of t into dst, which may be t.
func applyAct(dst, t *tensor.Tensor, a Act) *tensor.Tensor {
	switch a {
	case ActReLU:
		return tensor.ReLUTo(dst, t)
	case ActReLU6:
		return tensor.ReLU6To(dst, t)
	case ActSigmoid:
		return tensor.SigmoidTo(dst, t)
	case ActTanh:
		return tensor.TanhTo(dst, t)
	case ActSoftmax:
		return tensor.SoftmaxTo(dst, t)
	case ActGELU:
		return tensor.GELUTo(dst, t)
	}
	panic(fmt.Sprintf("unknown activation %v", a))
}
