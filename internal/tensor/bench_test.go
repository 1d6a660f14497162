package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchTensor(shape ...int) *Tensor {
	rng := rand.New(rand.NewSource(1))
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}

func BenchmarkConv2D(b *testing.B) {
	in := benchTensor(1, 56, 56, 64)
	k := benchTensor(3, 3, 64, 64)
	bias := benchTensor(64)
	b.SetBytes(int64(in.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(in, k, bias, 1, Same)
	}
}

func BenchmarkConv2DPointwise(b *testing.B) {
	in := benchTensor(1, 28, 28, 256)
	k := benchTensor(1, 1, 256, 256)
	b.SetBytes(int64(in.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(in, k, nil, 1, Same)
	}
}

// BenchmarkConv2DSingleImage runs one image through the late-stage
// shapes of a 160 px input, whose few output rows a row split left on
// one worker.
func BenchmarkConv2DSingleImage(b *testing.B) {
	for _, c := range []struct{ side, k, cin, cout int }{
		{10, 3, 256, 256}, {5, 3, 512, 512}, {20, 1, 512, 128}, {40, 3, 64, 64},
	} {
		b.Run(fmt.Sprintf("%dx%d_k%d_%d-%d", c.side, c.side, c.k, c.cin, c.cout), func(b *testing.B) {
			in := benchTensor(1, c.side, c.side, c.cin)
			k := benchTensor(c.k, c.k, c.cin, c.cout)
			for i := 0; i < b.N; i++ {
				Conv2D(in, k, nil, 1, Same)
			}
		})
	}
}

func BenchmarkDepthwiseConv2D(b *testing.B) {
	in := benchTensor(1, 56, 56, 128)
	k := benchTensor(3, 3, 128, 1)
	b.SetBytes(int64(in.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepthwiseConv2D(in, k, nil, 1, Same)
	}
}

func BenchmarkMatMul(b *testing.B) {
	x := benchTensor(64, 512)
	y := benchTensor(512, 512)
	b.SetBytes(int64(x.Elems()+y.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	x := benchTensor(32, 1000)
	b.SetBytes(int64(x.Elems()) * 4)
	dst := New(x.Shape()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxTo(dst, x)
	}
}

func BenchmarkMaxPool(b *testing.B) {
	in := benchTensor(1, 112, 112, 64)
	b.SetBytes(int64(in.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D(in, 2, 2, Valid)
	}
}

// BenchmarkParallelForHandoff prices a split apart from its work: two
// empty ranges handed to two goroutines and waited for. grain is sized
// against it.
func BenchmarkParallelForHandoff(b *testing.B) {
	defer SetMaxWorkers(SetMaxWorkers(2))
	for i := 0; i < b.N; i++ {
		parallelFor(2, grain, func(lo, hi int) {})
	}
}
