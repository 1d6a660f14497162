package tensor

import (
	"fmt"
	"math"
)

// GELUTo applies the Gaussian error linear unit (tanh approximation, as
// in BERT) elementwise into dst.
func GELUTo(dst, t *Tensor) *Tensor {
	const c = 0.7978845608028654 // sqrt(2/π)
	return elementwise("gelu", dst, t, func(out, in []float32) {
		for i, v := range in {
			x := float64(v)
			out[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
		}
	})
}

// LayerNorm normalizes each innermost vector to zero mean and unit
// variance, then applies the per-feature affine (gamma, beta) — the
// transformer's normalization (statistics computed at run time, unlike
// batch norm's stored ones).
func LayerNorm(t, gamma, beta *Tensor, eps float32) *Tensor {
	d := t.shape[len(t.shape)-1]
	if gamma.Elems() != d || beta.Elems() != d {
		panic(fmt.Sprintf("tensor: layernorm params %d/%d for dim %d", gamma.Elems(), beta.Elems(), d))
	}
	out := New(t.shape...)
	rows := len(t.data) / d
	parallelFor(rows, d, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := t.data[r*d : (r+1)*d]
			dst := out.data[r*d : (r+1)*d]
			var mean float64
			for _, v := range row {
				mean += float64(v)
			}
			mean /= float64(d)
			var vari float64
			for _, v := range row {
				dv := float64(v) - mean
				vari += dv * dv
			}
			vari /= float64(d)
			inv := 1 / math.Sqrt(vari+float64(eps))
			for i, v := range row {
				dst[i] = float32((float64(v)-mean)*inv)*gamma.data[i] + beta.data[i]
			}
		}
	})
	return out
}

// SelfAttention computes multi-head scaled-dot-product self-attention for
// a [N, T, D] input:
//
//	Q = xWq + bq, K = xWk + bk, V = xWv + bv   (each [N, T, D])
//	head_h = softmax(Q_h K_h' / sqrt(dh)) V_h   (dh = D / heads)
//	out = concat(heads) Wo + bo
//
// Wq, Wk, Wv, Wo are [D, D]; biases are [D]. Rows (batch × head) are
// processed in parallel.
func SelfAttention(x, wq, bq, wk, bk, wv, bv, wo, bo *Tensor, heads int) *Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: attention wants [N, T, D] input, got %v", x.shape))
	}
	n, tLen, d := x.shape[0], x.shape[1], x.shape[2]
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("tensor: %d heads do not divide model dim %d", heads, d))
	}
	dh := d / heads

	flat := x.Reshape(n*tLen, d)
	q := Dense(flat, wq, bq)
	k := Dense(flat, wk, bk)
	v := Dense(flat, wv, bv)

	ctx := New(n*tLen, d)
	scale := float32(1 / math.Sqrt(float64(dh)))
	parallelFor(n*heads, 2*tLen*tLen*dh, func(lo, hi int) {
		scores := make([]float32, tLen)
		for bh := lo; bh < hi; bh++ {
			b := bh / heads
			h := bh % heads
			base := b * tLen
			off := h * dh
			for i := 0; i < tLen; i++ {
				qRow := q.data[(base+i)*d+off : (base+i)*d+off+dh]
				// Scores over all positions, numerically stable softmax.
				mx := float32(math.Inf(-1))
				for j := 0; j < tLen; j++ {
					kRow := k.data[(base+j)*d+off : (base+j)*d+off+dh]
					var s float32
					for e := 0; e < dh; e++ {
						s += qRow[e] * kRow[e]
					}
					s *= scale
					scores[j] = s
					if s > mx {
						mx = s
					}
				}
				var sum float64
				for j := range scores {
					e := math.Exp(float64(scores[j] - mx))
					scores[j] = float32(e)
					sum += e
				}
				inv := float32(1 / sum)
				dst := ctx.data[(base+i)*d+off : (base+i)*d+off+dh]
				for j := 0; j < tLen; j++ {
					w := scores[j] * inv
					if w == 0 {
						continue
					}
					vRow := v.data[(base+j)*d+off : (base+j)*d+off+dh]
					for e := 0; e < dh; e++ {
						dst[e] += w * vRow[e]
					}
				}
			}
		}
	})
	out := Dense(ctx, wo, bo)
	return out.Reshape(n, tLen, d)
}
