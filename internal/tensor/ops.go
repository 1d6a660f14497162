package tensor

import (
	"fmt"
	"math"
)

// ReLU applies max(0, x) elementwise, returning a new tensor.
func ReLU(t *Tensor) *Tensor {
	out := New(t.shape...)
	parallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if v := t.data[i]; v > 0 {
				out.data[i] = v
			}
		}
	})
	return out
}

// ReLU6 applies min(max(0, x), 6) elementwise (MobileNet's activation).
func ReLU6(t *Tensor) *Tensor {
	out := New(t.shape...)
	parallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := t.data[i]
			if v < 0 {
				v = 0
			} else if v > 6 {
				v = 6
			}
			out.data[i] = v
		}
	})
	return out
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(t *Tensor) *Tensor {
	out := New(t.shape...)
	parallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = float32(1 / (1 + math.Exp(-float64(t.data[i]))))
		}
	})
	return out
}

// Tanh applies the hyperbolic tangent elementwise.
func Tanh(t *Tensor) *Tensor {
	out := New(t.shape...)
	parallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = float32(math.Tanh(float64(t.data[i])))
		}
	})
	return out
}

// Softmax normalizes the innermost dimension to a probability
// distribution, numerically stabilized by max subtraction.
func Softmax(t *Tensor) *Tensor {
	if t.Rank() == 0 {
		panic("tensor: softmax on rank-0 tensor")
	}
	inner := t.shape[len(t.shape)-1]
	rows := len(t.data) / inner
	out := New(t.shape...)
	parallelFor(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t.data[r*inner : (r+1)*inner]
			dst := out.data[r*inner : (r+1)*inner]
			mx := row[0]
			for _, v := range row[1:] {
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for i, v := range row {
				e := math.Exp(float64(v - mx))
				dst[i] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for i := range dst {
				dst[i] *= inv
			}
		}
	})
	return out
}

// Add returns the elementwise sum of two same-shaped tensors (residual
// connections).
func Add(a, b *Tensor) *Tensor {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: add shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := New(a.shape...)
	parallelFor(len(a.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = a.data[i] + b.data[i]
		}
	})
	return out
}

// Scale multiplies every element by s, returning a new tensor.
func Scale(t *Tensor, s float32) *Tensor {
	out := New(t.shape...)
	parallelFor(len(t.data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = t.data[i] * s
		}
	})
	return out
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
	parallelFor(pixels, func(lo, hi int) {
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

// BiasAdd adds a per-channel bias to the innermost dimension.
func BiasAdd(t *Tensor, bias *Tensor) *Tensor {
	c := t.shape[len(t.shape)-1]
	bd := biasData(bias, c)
	out := New(t.shape...)
	rows := len(t.data) / c
	parallelFor(rows, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * c
			for i := 0; i < c; i++ {
				out.data[base+i] = t.data[base+i] + bd[i]
			}
		}
	})
	return out
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
