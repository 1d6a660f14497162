package tensor

import (
	"fmt"
	"math"
)

// The elementwise kernels xTo(dst, t) write into dst, which may be t
// itself; a caller that wants a fresh result passes New(t.Shape()...).

// mustFit panics unless dst has the shape of op's operand t.
func mustFit(op string, dst, t *Tensor) {
	if !dst.shape.Equal(t.shape) {
		panic(fmt.Sprintf("tensor: %s into shape %v from %v", op, dst.shape, t.shape))
	}
}

// elementwise runs f over matching ranges of t's and dst's elements.
func elementwise(op string, dst, t *Tensor, f func(out, in []float32)) *Tensor {
	mustFit(op, dst, t)
	parallelFor(len(t.data), 1, func(lo, hi int) { f(dst.data[lo:hi], t.data[lo:hi]) })
	return dst
}

// ReLUTo applies max(0, x) elementwise into dst, storing everything not
// above zero — negatives, -0, NaN — as +0.
func ReLUTo(dst, t *Tensor) *Tensor { return elementwise("relu", dst, t, relu) }

// ReLU6To applies min(max(0, x), 6) elementwise (MobileNet's activation)
// into dst; NaN and -0 pass through.
func ReLU6To(dst, t *Tensor) *Tensor { return elementwise("relu6", dst, t, relu6) }

// SigmoidTo applies the logistic function elementwise into dst.
func SigmoidTo(dst, t *Tensor) *Tensor {
	return elementwise("sigmoid", dst, t, func(out, in []float32) {
		for i, v := range in {
			out[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	})
}

// TanhTo applies the hyperbolic tangent elementwise into dst.
func TanhTo(dst, t *Tensor) *Tensor {
	return elementwise("tanh", dst, t, func(out, in []float32) {
		for i, v := range in {
			out[i] = float32(math.Tanh(float64(v)))
		}
	})
}

// SoftmaxTo normalizes the innermost dimension to a probability
// distribution into dst, numerically stabilized by max subtraction: a
// row's maximum is taken before any of the row is written, and each
// element is read before it is stored.
func SoftmaxTo(dst, t *Tensor) *Tensor {
	if t.Rank() == 0 {
		panic("tensor: softmax on rank-0 tensor")
	}
	mustFit("softmax", dst, t)
	inner := t.shape[len(t.shape)-1]
	rows := len(t.data) / inner
	parallelFor(rows, inner, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t.data[r*inner : (r+1)*inner]
			out := dst.data[r*inner : (r+1)*inner]
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for i, v := range row {
				e := math.Exp(float64(v - mx))
				out[i] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for i := range out {
				out[i] *= inv
			}
		}
	})
	return dst
}

// AddTo writes the elementwise sum of two same-shaped tensors (residual
// connections) into dst, which may be a or b.
func AddTo(dst, a, b *Tensor) *Tensor {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", a.shape, b.shape))
	}
	mustFit("add", dst, a)
	parallelFor(len(a.data), 1, func(lo, hi int) { addVec(dst.data[lo:hi], a.data[lo:hi], b.data[lo:hi]) })
	return dst
}

// ConcatChannels concatenates NHWC tensors along the channel axis
// (Inception-style filter concatenation). All inputs must agree on the
// leading dimensions.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: concat of zero tensors")
	}
	first := ts[0]
	if first.Rank() != 4 {
		panic("tensor: concat requires rank-4 NHWC tensors")
	}
	n, h, w := first.shape[0], first.shape[1], first.shape[2]
	totalC := 0
	for _, t := range ts {
		if t.Rank() != 4 || t.shape[0] != n || t.shape[1] != h || t.shape[2] != w {
			panic(fmt.Sprintf("tensor: concat leading-dim mismatch %v vs %v", first.shape, t.shape))
		}
		totalC += t.shape[3]
	}
	out := New(n, h, w, totalC)
	pixels := n * h * w
	parallelFor(pixels, totalC, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			off := 0
			for _, t := range ts {
				c := t.shape[3]
				copy(out.data[p*totalC+off:p*totalC+off+c], t.data[p*c:(p+1)*c])
				off += c
			}
		}
	})
	return out
}

// Flatten collapses all non-batch dimensions, yielding a rank-2 tensor.
func Flatten(t *Tensor) *Tensor {
	if t.Rank() < 2 {
		return t.Reshape(1, t.Elems())
	}
	batch := t.shape[0]
	return t.Reshape(batch, t.Elems()/batch)
}

// biasData returns bias's elements after checking there is one per
// channel, or nil for a nil bias.
func biasData(bias *Tensor, c int) []float32 {
	if bias == nil {
		return nil
	}
	if bias.Elems() != c {
		panic(fmt.Sprintf("tensor: bias length %d for %d channels", bias.Elems(), c))
	}
	return bias.data
}

// Stack concatenates tensors along the batch (outermost) dimension. All
// inputs must share shape beyond the batch dim; batch sizes may differ.
func Stack(ts []*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: stack of zero tensors")
	}
	first := ts[0].shape
	if len(first) < 2 {
		return nil, fmt.Errorf("tensor: stack needs batched tensors, got %v", first)
	}
	inner := first[1:]
	total := 0
	for _, t := range ts {
		if len(t.shape) != len(first) || !Shape(t.shape[1:]).Equal(inner) {
			return nil, fmt.Errorf("tensor: stack shape mismatch %v vs %v", first, t.shape)
		}
		total += t.shape[0]
	}
	outShape := append(Shape{total}, inner...)
	out := New(outShape...)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += len(t.data)
	}
	return out, nil
}

// ArgMax returns the index of the maximum element of a rank-1 or the last
// row of a rank-2 tensor (prediction class).
func ArgMax(t *Tensor) int {
	data := t.data
	if len(data) == 0 {
		return -1
	}
	best, bv := 0, data[0]
	for i, v := range data[1:] {
		if v > bv {
			best, bv = i+1, v
		}
	}
	return best
}
