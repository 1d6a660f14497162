package tensor

// useAVX2 selects the assembly primitives. It is decided once, from the
// hardware alone: the CPU must implement AVX2 and the OS must save the
// YMM registers across context switches.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xgetbv0()&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// axpy computes y[i] += a*x[i] for i < len(y).
func axpy(a float32, x, y []float32) {
	if useAVX2 {
		axpyAVX2(a, x[:len(y)], y)
		return
	}
	axpyGo(a, x, y)
}

// convList computes dst[co] += t.val*k[t.off+co] for co < len(dst), for
// each term t of list in order.
func convList(list []term, k, dst []float32) {
	if !useAVX2 {
		convListGo(list, k, dst)
		return
	}
	if n := len(list); n > 0 {
		_ = k[:int(list[n-1].off)+len(dst)] // offsets ascend: this bounds every row
	}
	convListAVX2(list, k, dst)
}

// depthwiseTaps computes dst[c] += in[t.in+c]*k[t.k+c] for c < len(dst),
// for each tap t in order.
func depthwiseTaps(taps []tap, in, k, dst []float32) {
	if !useAVX2 {
		depthwiseTapsGo(taps, in, k, dst)
		return
	}
	if n := len(taps); n > 0 {
		// Both offsets ascend: this bounds every row.
		_, _ = in[:int(taps[n-1].in)+len(dst)], k[:int(taps[n-1].k)+len(dst)]
	}
	depthwiseTapsAVX2(taps, in, k, dst)
}

// scaleShift computes out[i] = x[i]*s[i] + b[i] for i < len(x).
func scaleShift(out, x, s, b []float32) {
	if useAVX2 {
		scaleShiftAVX2(out[:len(x)], x, s[:len(x)], b[:len(x)])
		return
	}
	scaleShiftGo(out, x, s, b)
}

// scale computes y[i] *= a for i < len(y).
func scale(a float32, y []float32) {
	if useAVX2 {
		scaleAVX2(a, y)
		return
	}
	scaleGo(a, y)
}

// addVec computes out[i] = x[i] + y[i] for i < len(x).
func addVec(out, x, y []float32) {
	if useAVX2 {
		addVecAVX2(out[:len(x)], x, y[:len(x)])
		return
	}
	addVecGo(out, x, y)
}

// maxInto sets y[i] = x[i] where x[i] > y[i], for i < len(y).
func maxInto(x, y []float32) {
	if useAVX2 {
		maxIntoAVX2(x[:len(y)], y)
		return
	}
	maxIntoGo(x, y)
}

func relu(out, in []float32)  { activation(reluAVX2, reluGo, out, in) }
func relu6(out, in []float32) { activation(relu6AVX2, relu6Go, out, in) }

// activation runs the assembly form of an activation, or its Go
// definition def, over in into out.
func activation(asm, def func(out, in []float32), out, in []float32) {
	if useAVX2 {
		asm(out[:len(in)], in)
		return
	}
	def(out, in)
}

// Implemented in axpy_amd64.s. The slicing in the callers above is the
// bounds check; the assembly trusts len(y), len(dst), len(in) and len(x).

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func convListAVX2(list []term, k, dst []float32)

//go:noescape
func depthwiseTapsAVX2(taps []tap, in, k, dst []float32)

//go:noescape
func scaleShiftAVX2(out, x, s, b []float32)

//go:noescape
func scaleAVX2(a float32, y []float32)

//go:noescape
func addVecAVX2(out, x, y []float32)

//go:noescape
func maxIntoAVX2(x, y []float32)

//go:noescape
func reluAVX2(out, in []float32)

//go:noescape
func relu6AVX2(out, in []float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
