package tensor

import (
	"fmt"
	"math"
)

// MatMul multiplies a [M, K] tensor by a [K, N] tensor, parallelized over
// output rows.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: matmul wants rank-2 operands, got %v / %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul inner-dim mismatch %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	parallelFor(m, k*n, func(lo, hi int) {
		list := termLists.Get().(*[]term)
		defer termLists.Put(list)
		if len(*list) < k {
			*list = make([]term, k)
		}
		for i := lo; i < hi; i++ {
			convList((*list)[:compact(a.data[i*k:(i+1)*k], n, *list)], b.data, out.data[i*n:(i+1)*n])
		}
	})
	return out
}

// Dense applies a fully-connected layer: out = in·W + bias.
//
//	in:   [N, K]
//	w:    [K, U]
//	bias: [U] or nil
func Dense(in, w, bias *Tensor) *Tensor {
	out := MatMul(in, w)
	addBias(out.data, biasData(bias, out.shape[1]))
	return out
}

// BatchNormTo applies per-channel affine normalization over the
// innermost dimension using precomputed inference-time statistics, into
// dst, which may be in:
//
//	out = gamma * (x - mean) / sqrt(variance + eps) + beta
//
// gamma, beta, mean, variance all have length C (the innermost dim).
func BatchNormTo(dst, in, gamma, beta, mean, variance *Tensor, eps float32) *Tensor {
	mustFit("batchnorm", dst, in)
	c := in.shape[len(in.shape)-1]
	for _, p := range []*Tensor{gamma, beta, mean, variance} {
		if p.Elems() != c {
			panic(fmt.Sprintf("tensor: batchnorm param length %d for %d channels", p.Elems(), c))
		}
	}
	// Fold into a scale and a shift once, then apply them per row: one
	// rounded multiply and one rounded add an element.
	scale := make([]float32, c)
	shift := make([]float32, c)
	for i := 0; i < c; i++ {
		s := gamma.data[i] / sqrt32(variance.data[i]+eps)
		scale[i] = s
		shift[i] = beta.data[i] - float32(mean.data[i]*s)
	}
	rows := len(in.data) / c
	parallelFor(rows, c, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			scaleShift(dst.data[r*c:(r+1)*c], in.data[r*c:(r+1)*c], scale, shift)
		}
	})
	return dst
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
