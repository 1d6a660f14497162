//go:build !amd64

package tensor

// axpy computes y[i] += a*x[i] for i < len(y).
func axpy(a float32, x, y []float32) { axpyGo(a, x, y) }

// convList computes dst[co] += t.val*k[t.off+co] for co < len(dst), for
// each term t of list in order.
func convList(list []term, k, dst []float32) { convListGo(list, k, dst) }

// depthwiseTaps computes dst[c] += in[t.in+c]*k[t.k+c] for c < len(dst),
// for each tap t in order.
func depthwiseTaps(taps []tap, in, k, dst []float32) { depthwiseTapsGo(taps, in, k, dst) }

// scaleShift computes out[i] = x[i]*s[i] + b[i] for i < len(x).
func scaleShift(out, x, s, b []float32) { scaleShiftGo(out, x, s, b) }

// scale computes y[i] *= a for i < len(y).
func scale(a float32, y []float32) { scaleGo(a, y) }

// addVec computes out[i] = x[i] + y[i] for i < len(x).
func addVec(out, x, y []float32) { addVecGo(out, x, y) }

// maxInto sets y[i] = x[i] where x[i] > y[i], for i < len(y).
func maxInto(x, y []float32) { maxIntoGo(x, y) }

func relu(out, in []float32)  { reluGo(out, in) }
func relu6(out, in []float32) { relu6Go(out, in) }
