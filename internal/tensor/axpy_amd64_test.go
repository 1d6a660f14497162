package tensor

import (
	"math/rand"
	"testing"
)

// atBothPaths runs fn with the assembly, where the CPU has it, and again
// with it off, so the portable path runs on amd64 too.
func atBothPaths(t *testing.T, fn func(t *testing.T)) {
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	if useAVX2 {
		t.Run("avx2", fn)
	}
	useAVX2 = false
	t.Run("go", fn)
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
