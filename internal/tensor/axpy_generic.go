//go:build !amd64

package tensor

// axpy computes y[i] += a*x[i] for i < len(y).
func axpy(a float32, x, y []float32) { axpyGo(a, x, y) }

// mulAdd computes y[i] += x[i]*k[i] for i < len(y).
func mulAdd(x, k, y []float32) { mulAddGo(x, k, y) }

// convList computes dst[co] += t.val*k[t.off+co] for co < len(dst), for
// each term t of list in order.
func convList(list []term, k, dst []float32) { convListGo(list, k, dst) }

func relu(out, in []float32)  { reluGo(out, in) }
func relu6(out, in []float32) { relu6Go(out, in) }
