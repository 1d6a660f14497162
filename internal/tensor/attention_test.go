package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestGELUKnownValues(t *testing.T) {
	x := FromSlice([]float32{0, 100, -100}, 3)
	y := GELUTo(New(x.Shape()...), x)
	if y.At(0) != 0 {
		t.Fatalf("gelu(0) = %v", y.At(0))
	}
	if math.Abs(float64(y.At(1))-100) > 1e-3 {
		t.Fatalf("gelu(100) = %v, want ≈100", y.At(1))
	}
	if math.Abs(float64(y.At(2))) > 1e-3 {
		t.Fatalf("gelu(-100) = %v, want ≈0", y.At(2))
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	gamma := New(4)
	gamma.Fill(1)
	beta := New(4)
	y := LayerNorm(x, gamma, beta, 1e-6)
	// Output row must have ≈zero mean and ≈unit variance.
	var mean, vari float64
	for _, v := range y.Data() {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range y.Data() {
		vari += (float64(v) - mean) * (float64(v) - mean)
	}
	vari /= 4
	if math.Abs(mean) > 1e-5 || math.Abs(vari-1) > 1e-3 {
		t.Fatalf("layernorm mean %v var %v", mean, vari)
	}
}

func TestLayerNormAffine(t *testing.T) {
	x := FromSlice([]float32{-1, 1}, 1, 2)
	gamma := FromSlice([]float32{2, 2}, 2)
	beta := FromSlice([]float32{10, 10}, 2)
	y := LayerNorm(x, gamma, beta, 0)
	// Normalized row is (-1, 1); affine gives (8, 12).
	if math.Abs(float64(y.At(0, 0))-8) > 1e-4 || math.Abs(float64(y.At(0, 1))-12) > 1e-4 {
		t.Fatalf("layernorm affine = %v", y.Data())
	}
}

func TestLayerNormParamMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched layernorm params accepted")
		}
	}()
	LayerNorm(New(1, 4), New(3), New(4), 0)
}

// With zero query/key projections, attention weights are uniform, so the
// output is the mean of the value projections.
func TestSelfAttentionUniformWhenKeysZero(t *testing.T) {
	const tl, d, heads = 3, 4, 2
	x := New(1, tl, d)
	for i := range x.Data() {
		x.Data()[i] = float32(i + 1)
	}
	zeroW := New(d, d)
	zeroB := New(d)
	idW := New(d, d)
	for i := 0; i < d; i++ {
		idW.Set(1, i, i)
	}
	// Q = K = 0 → uniform scores; V = x (identity); Wo = identity.
	out := SelfAttention(x, zeroW, zeroB, zeroW, zeroB, idW, zeroB, idW, zeroB, heads)
	if !out.Shape().Equal(Shape{1, tl, d}) {
		t.Fatalf("attention shape %v", out.Shape())
	}
	// Every position's output equals the mean of x over positions.
	for e := 0; e < d; e++ {
		var mean float32
		for i := 0; i < tl; i++ {
			mean += x.At(0, i, e)
		}
		mean /= tl
		for i := 0; i < tl; i++ {
			if math.Abs(float64(out.At(0, i, e)-mean)) > 1e-5 {
				t.Fatalf("pos %d dim %d = %v, want %v", i, e, out.At(0, i, e), mean)
			}
		}
	}
}

// Two sequences of 32 positions, model dim 32 in 4 heads: the head loop
// and the projections' 64 rows both carry enough work to split.
func TestSelfAttentionParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 2, 32, 32)
	ws := make([]*Tensor, 8)
	for i := 0; i < 8; i += 2 {
		ws[i] = randTensor(rng, 32, 32)
		ws[i+1] = randTensor(rng, 32)
	}
	requireSplits(t, 2*4, 2*32*32*8)
	requireSplits(t, 2*32, 32*32)
	defer SetMaxWorkers(SetMaxWorkers(1))
	serial := SelfAttention(x, ws[0], ws[1], ws[2], ws[3], ws[4], ws[5], ws[6], ws[7], 4)
	for _, w := range []int{2, 3, 8} {
		SetMaxWorkers(w)
		parallel := SelfAttention(x, ws[0], ws[1], ws[2], ws[3], ws[4], ws[5], ws[6], ws[7], 4)
		sameBits(t, fmt.Sprintf("attention at %d workers vs 1", w), parallel.data, serial.data)
	}
}

func TestSelfAttentionValidation(t *testing.T) {
	x := New(1, 3, 4)
	w := New(4, 4)
	b := New(4)
	assertPanics := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	assertPanics(func() { SelfAttention(New(3, 4), w, b, w, b, w, b, w, b, 2) }) // rank 2
	assertPanics(func() { SelfAttention(x, w, b, w, b, w, b, w, b, 3) })         // 3 ∤ 4
}
