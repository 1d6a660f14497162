package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// specials are sprinkled over the random payloads. The NaN is the one bit
// pattern x86 itself produces for an invalid operation (Inf*0, Inf-Inf),
// so every NaN in play is the same value and the comparison can demand
// bit equality: which of two differently-tagged NaN operands survives an
// add depends on operand order, which the Go compiler does not fix even
// for the scalar loop.
var specials = []float32{
	math.Float32frombits(0xFFC00000), // NaN
	float32(math.Inf(1)),
	float32(math.Inf(-1)),
	math.Float32frombits(0x80000000), // -0
	0,
	math.Float32frombits(1),          // smallest denormal
	math.Float32frombits(0x807FFFFF), // largest negative denormal
	math.MaxFloat32,                  // overflows to Inf when scaled
	1e-30,                            // product underflows into denormals
}

func payload(rng *rand.Rand, n int) []float32 {
	p := make([]float32, n)
	for i := range p {
		if rng.Intn(4) == 0 {
			p[i] = specials[rng.Intn(len(specials))]
		} else {
			p[i] = float32(rng.NormFloat64())
		}
	}
	return p
}

// forEachWindow calls fn for every length 0..257 and every pair of
// starting offsets 0..7, so each routine sees its 32-wide body, 8-wide
// step and scalar tail at every load/store misalignment. total is the
// size of the buffer the window [off, off+n) is cut from; whatever lies
// outside the window must come back untouched.
func forEachWindow(fn func(n, offA, offB, total int)) {
	const maxLen, maxOff = 257, 7
	for n := 0; n <= maxLen; n++ {
		for offA := 0; offA <= maxOff; offA++ {
			for offB := 0; offB <= maxOff; offB++ {
				fn(n, offA, offB, maxLen+2*maxOff+1)
			}
		}
	}
}

func TestAxpyMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: axpy already is axpyGo")
	}
	rng := rand.New(rand.NewSource(1))
	scalars := append([]float32{1, -1.5, 3.1415927e-20}, specials...)
	forEachWindow(func(n, offX, offY, total int) {
		a := scalars[rng.Intn(len(scalars))]
		x := payload(rng, total)
		want := payload(rng, total)
		got := append([]float32(nil), want...)
		axpyGo(a, x[offX:offX+n], want[offY:offY+n])
		axpyAVX2(a, x[offX:offX+n], got[offY:offY+n])
		sameBits(t, "axpy", got, want)
	})
}

func TestMulAddMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: mulAdd already is mulAddGo")
	}
	rng := rand.New(rand.NewSource(2))
	forEachWindow(func(n, offX, offY, total int) {
		offK := (offX + offY) % 8
		x := payload(rng, total)
		k := payload(rng, total)
		want := payload(rng, total)
		got := append([]float32(nil), want...)
		mulAddGo(x[offX:offX+n], k[offK:offK+n], want[offY:offY+n])
		mulAddAVX2(x[offX:offX+n], k[offK:offK+n], got[offY:offY+n])
		sameBits(t, "mulAdd", got, want)
	})
}
