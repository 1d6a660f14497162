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

// Implemented in axpy_amd64.s. The slicing in the callers above is the
// bounds check; the assembly trusts len(y).

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func mulAddAVX2(x, k, y []float32)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)
