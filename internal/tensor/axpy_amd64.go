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

// mulAdd computes y[i] += x[i]*k[i] for i < len(y).
func mulAdd(x, k, y []float32) {
	if useAVX2 {
		mulAddAVX2(x[:len(y)], k[:len(y)], y)
		return
	}
	mulAddGo(x, k, y)
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
// bounds check; the assembly trusts len(y), len(dst) and len(in).

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func mulAddAVX2(x, k, y []float32)

//go:noescape
func convListAVX2(list []term, k, dst []float32)

//go:noescape
func reluAVX2(out, in []float32)

//go:noescape
func relu6AVX2(out, in []float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
