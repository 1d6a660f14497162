package tensor

// The two inner primitives every multiply-accumulate kernel bottoms out
// in. The Go loops here are the definition: an architecture-specific
// routine may replace them only if it rounds the product and the sum
// separately, in that order, so results stay bit-identical. The explicit
// float32 conversion of the product forbids the compiler from fusing the
// two into one FMA rounding on targets that would (arm64, GOAMD64=v3).

// axpyGo computes y[i] += a*x[i] for i < len(y). len(x) must be >= len(y).
func axpyGo(a float32, x, y []float32) {
	x = x[:len(y)]
	for i := range y {
		y[i] += float32(a * x[i])
	}
}

// mulAddGo computes y[i] += x[i]*k[i] for i < len(y). len(x) and len(k)
// must be >= len(y).
func mulAddGo(x, k, y []float32) {
	x = x[:len(y)]
	k = k[:len(y)]
	for i := range y {
		y[i] += float32(x[i] * k[i])
	}
}

// addBias adds bias to every len(bias)-wide row of data, in place; a nil
// bias adds nothing. 1*b is exact for every float32 b, so axpy(1, bias,
// row) performs the same single rounded add per element as BiasAdd.
func addBias(data, bias []float32) {
	c := len(bias)
	if c == 0 {
		return
	}
	for base := 0; base+c <= len(data); base += c {
		axpy(1, bias, data[base:base+c])
	}
}
