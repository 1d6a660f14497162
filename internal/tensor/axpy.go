package tensor

import "math"

// The inner primitives every per-element loop of the forward pass
// bottoms out in. The Go loops here are the definition: an
// architecture-specific routine may replace them only if it rounds the
// product and the sum separately, in that order, so results stay
// bit-identical. The float32 conversion of the product forbids fusing the
// two into one FMA rounding where the compiler would (arm64, GOAMD64=v3).
// Only maxIntoGo branches on the data; its assembly form does not.

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

// scaleShiftGo computes out[i] = x[i]*s[i] + b[i] for i < len(x), the
// product rounded before the add. len(out), len(s) and len(b) must be >=
// len(x).
func scaleShiftGo(out, x, s, b []float32) {
	out, s, b = out[:len(x)], s[:len(x)], b[:len(x)]
	for i, v := range x {
		out[i] = float32(v*s[i]) + b[i]
	}
}

// scaleGo computes y[i] *= a for i < len(y).
func scaleGo(a float32, y []float32) {
	for i := range y {
		y[i] *= a
	}
}

// addVecGo computes out[i] = x[i] + y[i] for i < len(x). len(out) and len(y)
// must be >= len(x); out may be x or y.
func addVecGo(out, x, y []float32) {
	out, y = out[:len(x)], y[:len(x)]
	for i, v := range x {
		out[i] = v + y[i]
	}
}

// maxIntoGo sets y[i] = x[i] where x[i] > y[i], for i < len(y): a NaN in
// x never replaces y[i], and of two equal values (±0) y keeps its own.
// len(x) must be >= len(y).
func maxIntoGo(x, y []float32) {
	x = x[:len(y)]
	for i, v := range x {
		if v > y[i] {
			y[i] = v
		}
	}
}

// tap is one in-bounds tap of a depthwise output pixel: the offsets of
// its input pixel and of its kernel row.
type tap struct{ in, k int32 }

// depthwiseTapsGo computes dst[c] += in[t.in+c]*k[t.k+c] for c <
// len(dst), for each tap t in order.
func depthwiseTapsGo(taps []tap, in, k, dst []float32) {
	for _, t := range taps {
		mulAddGo(in[t.in:], k[t.k:], dst)
	}
}

// term is one nonzero activation: its value and the offset of the kernel
// row it scales.
type term struct {
	off int32
	val float32
}

// compact writes src's nonzero elements (NaN counts, -0 does not) to
// list in order, element i with offset i*stride, and returns how many.
// Every element is written; the count advances by the nonzero bit.
func compact(src []float32, stride int, list []term) int {
	list = list[:len(src)]
	n := 0
	for i, v := range src {
		list[n] = term{int32(i * stride), v}
		n += int((math.Float32bits(v)&0x7FFFFFFF + 0x7FFFFFFF) >> 31)
	}
	return n
}

// convListGo computes dst[co] += t.val*k[t.off+co] for co < len(dst), for
// each term t of list in order.
func convListGo(list []term, k, dst []float32) {
	for _, t := range list {
		axpyGo(t.val, k[t.off:], dst)
	}
}

// under is all ones when x < n and zero otherwise.
func under(x, n uint32) uint32 { return uint32((uint64(x) - uint64(n)) >> 32) }

// reluGo stores v where v > 0 — bit patterns 1 to 0x7F800000 (+Inf) —
// and +0 for everything else: negatives, -0, NaN.
func reluGo(out, in []float32) {
	out = out[:len(in)]
	for i, v := range in {
		b := math.Float32bits(v)
		out[i] = math.Float32frombits(b & under(b-1, 0x7F800000))
	}
}

// relu6Go stores 0 where v < 0 (0x80000001 to 0xFF800000), 6 where v > 6
// (0x40C00001 to 0x7F800000) and v itself elsewhere, NaN and -0 included.
func relu6Go(out, in []float32) {
	const six = 0x40C00000
	out = out[:len(in)]
	for i, v := range in {
		b := math.Float32bits(v)
		neg, big := under(b-0x80000001, 0x7F800000), under(b-six-1, 0x7F800000-six)
		out[i] = math.Float32frombits(b&^(neg|big) | big&six)
	}
}

// addBias adds bias to every len(bias)-wide row of data, in place; a nil
// bias adds nothing. 1*b is exact for every float32 b, so axpy(1, bias,
// row) performs the same single rounded add per element as x + b.
func addBias(data, bias []float32) {
	c := len(bias)
	if c == 0 {
		return
	}
	for base := 0; base+c <= len(data); base += c {
		axpy(1, bias, data[base:base+c])
	}
}
