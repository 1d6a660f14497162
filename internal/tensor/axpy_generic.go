//go:build !amd64

package tensor

// axpy computes y[i] += a*x[i] for i < len(y).
func axpy(a float32, x, y []float32) { axpyGo(a, x, y) }

// mulAdd computes y[i] += x[i]*k[i] for i < len(y).
func mulAdd(x, k, y []float32) { mulAddGo(x, k, y) }
