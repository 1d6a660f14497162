// Package workload generates deterministic inference workloads: synthetic
// images shaped for a model's input and batched request sets, standing in
// for the paper's .pkl image files.
package workload

import (
	"math/rand"

	"ampsinf/internal/nn"
	"ampsinf/internal/tensor"
)

// Image synthesizes one input image for the model with pixel values in
// [0, 1), deterministic in seed.
func Image(m *nn.Model, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(m.InputShape...)
	data := in.Data()
	for i := range data {
		data[i] = float32(rng.Float64())
	}
	return in
}

// Images synthesizes n distinct images, deterministic in seed; none
// for a non-positive n.
func Images(m *nn.Model, n int, seed int64) []*tensor.Tensor {
	if n <= 0 {
		return nil
	}
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = Image(m, seed+int64(i)*7919)
	}
	return out
}

// Batches splits n images into consecutive batches of size batchSize
// (the last batch may be smaller). A non-positive batchSize behaves as 1.
func Batches(m *nn.Model, n, batchSize int, seed int64) [][]*tensor.Tensor {
	if batchSize <= 0 {
		batchSize = 1
	}
	imgs := Images(m, n, seed)
	var out [][]*tensor.Tensor
	for lo := 0; lo < len(imgs); lo += batchSize {
		hi := lo + batchSize
		if hi > len(imgs) {
			hi = len(imgs)
		}
		out = append(out, imgs[lo:hi])
	}
	return out
}
