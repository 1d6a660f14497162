// Package tensor implements a small dense-tensor engine with the kernels
// needed to execute convolutional neural-network inference: convolutions
// (standard, depthwise, separable), dense layers, pooling, normalization
// and activations. Kernels parallelize across goroutines so that the
// simulated serverless workers in this repository run real forward passes
// rather than sleeping.
//
// Tensors use row-major NHWC layout (batch, height, width, channels) for
// 4-D data; lower-rank tensors drop leading dimensions.
package tensor

import (
	"fmt"
	"math"
)

// Shape describes tensor dimensions, outermost first.
type Shape []int

// Elems returns the total number of elements described by the shape.
func (s Shape) Elems() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

func (s Shape) String() string {
	return fmt.Sprint([]int(s))
}

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape Shape
	data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	for _, d := range s {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", s))
		}
	}
	return &Tensor{shape: s, data: make([]float32, s.Elems())}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if len(data) != s.Elems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)", len(data), s, s.Elems()))
	}
	return &Tensor{shape: s, data: data}
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Elems returns the number of elements.
func (t *Tensor) Elems() int { return len(t.data) }

// Reshape returns a view of the same data with a new shape of equal size.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	if s.Elems() != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, s))
	}
	return &Tensor{shape: s, data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// MaxAbsDiff returns the maximum absolute elementwise difference between
// two same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.shape.Equal(b.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	var m float64
	for i := range a.data {
		d := math.Abs(float64(a.data[i] - b.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// AllClose reports whether all elements of a and b differ by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.shape.Equal(b.shape) {
		return false
	}
	return MaxAbsDiff(a, b) <= tol
}
