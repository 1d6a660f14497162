package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var negZero = math.Float32frombits(0x80000000)

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
	negZero,
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
// starting offsets 0..7, so each routine sees its 64- or 32-wide body,
// 8-wide step and scalar tail at every load/store misalignment. total is
// the size of the buffer the window [off, off+n) is cut from; whatever
// lies outside the window must come back untouched.
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

// spicedTensor is randTensor with one element in 128 one of the specials.
// In a kernel they make the zero-skip observable: 0 or -0 times a finite
// weight adds nothing, times ±Inf or NaN it adds NaN.
func spicedTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := randTensor(rng, shape...)
	for i := range t.data {
		if rng.Intn(128) == 0 {
			t.data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// sparseTensor is spicedTensor with about half the elements zeroed, the
// way a post-ReLU activation looks, so the kernels' zero-skip is
// exercised. One zero in four is -0, which is skipped too.
func sparseTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := spicedTensor(rng, shape...)
	for i := range t.data {
		switch r := rng.Intn(8); {
		case r < 3:
			t.data[i] = 0
		case r < 4:
			t.data[i] = negZero
		}
	}
	return t
}

// sameBits fails the test unless got and want hold the same bit patterns.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %08x (%v), want %08x (%v)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// requireIdentical fails unless got agrees with the reference in shape
// and in every bit of every element.
func requireIdentical(t *testing.T, got, want *Tensor) {
	t.Helper()
	if !got.shape.Equal(want.shape) {
		t.Fatalf("shape %v, want %v", got.shape, want.shape)
	}
	sameBits(t, "kernel vs reference", got.data, want.data)
}

// requirePanics fails for every named call that returns normally.
func requirePanics(t *testing.T, complaint string, calls map[string]func()) {
	t.Helper()
	for name, fn := range calls {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s %s", name, complaint)
				}
			}()
			fn()
		}()
	}
}

// atWorkerCounts runs fn under each kernel parallelism the partitioned
// and unpartitioned paths can meet, with the assembly and without.
func atWorkerCounts(t *testing.T, fn func(t *testing.T)) {
	prev := MaxWorkers()
	defer SetMaxWorkers(prev)
	for _, w := range []int{1, 2, 3, 8} {
		SetMaxWorkers(w)
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) { atBothPaths(t, fn) })
	}
}

// requireSplits fails unless parallelFor, given more than one worker,
// splits a loop of items indices at cost each.
func requireSplits(t *testing.T, items, cost int) {
	t.Helper()
	if items < 2 || items*cost < grain {
		t.Fatalf("%d items of cost %d run inline: the test would compare the inline path with itself", items, cost)
	}
}

// The batched geometry sits on both sides of the grain: most cases split,
// while 1×1 kernels at stride 2, every 1×1 depthwise and the stride-2
// valid 1×7 depthwise run inline. cin = 3 is the image layer, and 37
// channels make the primitives run their 32-wide body, 8-wide step and
// scalar tail.
const (
	refBatch, refH, refW = 4, 40, 9
	refCin, refCout      = 3, 37
)

var refKernels = [][2]int{{1, 1}, {3, 3}, {7, 1}, {1, 7}}

// The single-image shapes a cold inference runs: the last stages of a
// 160 px input are 10×10 and 5×5, the classifier's 1×1, and a stride-2
// valid 3×3 (Inception's grid reductions) makes 7×7 of 15×15. At
// singleCin → refCout channels (conv) and singleC (depthwise) every
// output but the single pixel splits; singleC = 20·32 + 16 + 5 keeps the
// primitives' tails.
var singleImage = []struct {
	side, k, stride int
	pad             Padding
}{{1, 3, 1, Same}, {5, 3, 1, Same}, {10, 3, 1, Same}, {10, 1, 1, Same}, {15, 3, 2, Valid}}

const singleCin, singleC = 32, 661

func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := sparseTensor(rng, refBatch, refH, refW, refCin)
	bias := randTensor(rng, refCout)
	atWorkerCounts(t, func(t *testing.T) {
		for _, k := range refKernels {
			kernel := spicedTensor(rng, k[0], k[1], refCin, refCout)
			for _, stride := range []int{1, 2} {
				for _, pad := range []Padding{Same, Valid} {
					requireIdentical(t, Conv2D(in, kernel, bias, stride, pad), refConv2D(in, kernel, bias, stride, pad))
					requireIdentical(t, Conv2D(in, kernel, nil, stride, pad), refConv2D(in, kernel, nil, stride, pad))
				}
			}
		}
		// Two rows an image: every output row reads both input rows of its
		// image, which keep their band slots until the next image's rows,
		// at the same heights, displace them.
		flat := sparseTensor(rng, refBatch, 2, refW, refCin)
		kernel := spicedTensor(rng, 3, 3, refCin, refCout)
		requireSplits(t, refBatch*2*refW, 3*3*refCin*refCout)
		requireIdentical(t, Conv2D(flat, kernel, bias, 1, Same), refConv2D(flat, kernel, bias, 1, Same))
		for _, c := range singleImage {
			in := sparseTensor(rng, 1, c.side, c.side, singleCin)
			kernel := spicedTensor(rng, c.k, c.k, singleCin, refCout)
			out := Conv2D(in, kernel, bias, c.stride, c.pad)
			requireIdentical(t, out, refConv2D(in, kernel, bias, c.stride, c.pad))
			if pixels := out.Elems() / refCout; pixels > 1 {
				requireSplits(t, pixels, c.k*c.k*singleCin*refCout)
			}
		}
	})
}

func TestDepthwiseConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := sparseTensor(rng, refBatch, refH, refW, refCout)
	bias := randTensor(rng, refCout)
	atWorkerCounts(t, func(t *testing.T) {
		for _, k := range refKernels {
			kernel := spicedTensor(rng, k[0], k[1], refCout, 1)
			for _, stride := range []int{1, 2} {
				for _, pad := range []Padding{Same, Valid} {
					requireIdentical(t, DepthwiseConv2D(in, kernel, bias, stride, pad), refDepthwiseConv2D(in, kernel, bias, stride, pad))
					requireIdentical(t, DepthwiseConv2D(in, kernel, nil, stride, pad), refDepthwiseConv2D(in, kernel, nil, stride, pad))
				}
			}
		}
		bias := randTensor(rng, singleC)
		for _, c := range singleImage {
			in := sparseTensor(rng, 1, c.side, c.side, singleC)
			kernel := spicedTensor(rng, c.k, c.k, singleC, 1)
			out := DepthwiseConv2D(in, kernel, bias, c.stride, c.pad)
			requireIdentical(t, out, refDepthwiseConv2D(in, kernel, bias, c.stride, c.pad))
			if pixels := out.Elems() / singleC; pixels > 1 {
				requireSplits(t, pixels, c.k*c.k*singleC)
			}
		}
	})
}

func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := sparseTensor(rng, 70, 32)
	b := spicedTensor(rng, 32, refCout)
	bias := randTensor(rng, refCout)
	requireSplits(t, 70, 32*refCout)
	atWorkerCounts(t, func(t *testing.T) {
		requireIdentical(t, MatMul(a, b), refMatMul(a, b))
		requireIdentical(t, Dense(a, b, bias), refBiasAdd(refMatMul(a, b), bias))
		requireIdentical(t, Dense(a, b, nil), refMatMul(a, b))
	})
}

// The layers between the convolutions against their scalar loops. Each
// shape crosses the grain, so at more than one worker the kernel splits;
// the pools take sparse input, whose ±0 ties and NaNs a max with its
// operands swapped would resolve the other way.
const refW2 = 12 // refBatch·refH·refW2·refCout = 71 040 elements

func TestBatchNormMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := spicedTensor(rng, refBatch, refH, refW2, refCout)
	gamma, beta, mean := spicedTensor(rng, refCout), spicedTensor(rng, refCout), spicedTensor(rng, refCout)
	variance := spicedTensor(rng, refCout)
	for i, v := range variance.data {
		variance.data[i] = v * v
	}
	requireSplits(t, refBatch*refH*refW2, refCout)
	atWorkerCounts(t, func(t *testing.T) {
		want := refBatchNorm(in, gamma, beta, mean, variance, 1e-3)
		requireIdentical(t, batchNorm(in, gamma, beta, mean, variance, 1e-3), want)
		x := in.clone()
		requireIdentical(t, BatchNormTo(x, x, gamma, beta, mean, variance, 1e-3), want)
	})
}

func TestPool2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := sparseTensor(rng, refBatch, refH, refW, refCout)
	requireSplits(t, refBatch*refH, refW*3*3*refCout)
	atWorkerCounts(t, func(t *testing.T) {
		for _, k := range []int{1, 2, 3} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []Padding{Same, Valid} {
					requireIdentical(t, MaxPool2D(in, k, stride, pad), refPool2D(in, k, stride, pad, true))
					requireIdentical(t, AvgPool2D(in, k, stride, pad), refPool2D(in, k, stride, pad, false))
				}
			}
		}
	})
}

func TestGlobalAvgPoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := spicedTensor(rng, refBatch, refH, refW2, refCout)
	requireSplits(t, refBatch, refH*refW2*refCout)
	atWorkerCounts(t, func(t *testing.T) {
		requireIdentical(t, GlobalAvgPool2D(in), refGlobalAvgPool(in))
	})
}

func TestAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := spicedTensor(rng, refBatch, refH, refW2, refCout)
	b := spicedTensor(rng, refBatch, refH, refW2, refCout)
	requireSplits(t, a.Elems(), 1)
	atWorkerCounts(t, func(t *testing.T) {
		want := refAdd(a, b)
		requireIdentical(t, add(a, b), want)
		x, y := a.clone(), b.clone()
		requireIdentical(t, AddTo(x, x, b), want)
		requireIdentical(t, AddTo(y, a, y), want)
	})
}

// In-place bias must still reject a bias of the wrong length, before any
// work is done.
func TestKernelBiasMismatchPanics(t *testing.T) {
	in := New(1, 4, 4, 2)
	requirePanics(t, "accepted a bias of the wrong length", map[string]func(){
		"conv2d":    func() { Conv2D(in, New(1, 1, 2, 5), New(4), 1, Same) },
		"depthwise": func() { DepthwiseConv2D(in, New(3, 3, 2, 1), New(3), 1, Same) },
		"dense":     func() { Dense(New(2, 3), New(3, 5), New(4)) },
	})
}

// The primitives take the length from y (dst, in, x) and must refuse a
// short operand instead of reading or writing past it.
func TestAxpyShortOperandPanics(t *testing.T) {
	requirePanics(t, "accepted an operand shorter than y", map[string]func(){
		"axpy":     func() { axpy(2, make([]float32, 7), make([]float32, 8)) },
		"convList": func() { convList([]term{{0, 1}, {4, 1}}, make([]float32, 8), make([]float32, 5)) },
		"relu":     func() { relu(make([]float32, 7), make([]float32, 8)) },
		"relu6":    func() { relu6(make([]float32, 7), make([]float32, 8)) },
		"depthwiseTaps in": func() {
			depthwiseTaps([]tap{{0, 0}, {4, 0}}, make([]float32, 8), make([]float32, 8), make([]float32, 5))
		},
		"depthwiseTaps k": func() {
			depthwiseTaps([]tap{{0, 0}, {0, 4}}, make([]float32, 8), make([]float32, 8), make([]float32, 5))
		},
		"scaleShift out": func() { scaleShift(make([]float32, 7), make([]float32, 8), make([]float32, 8), make([]float32, 8)) },
		"scaleShift s":   func() { scaleShift(make([]float32, 8), make([]float32, 8), make([]float32, 7), make([]float32, 8)) },
		"scaleShift b":   func() { scaleShift(make([]float32, 8), make([]float32, 8), make([]float32, 8), make([]float32, 7)) },
		"addVec out":     func() { addVec(make([]float32, 7), make([]float32, 8), make([]float32, 8)) },
		"addVec y":       func() { addVec(make([]float32, 8), make([]float32, 8), make([]float32, 7)) },
		"maxInto":        func() { maxInto(make([]float32, 7), make([]float32, 8)) },
	})
}

// convList against its Go definition at every width 0..257 and every pair
// of kernel/dst offsets 0..7, over lists of 0 to 4 terms whose rows lie
// at unequal alignments, with the specials in values, kernel and dst.
func TestConvListMatchesGo(t *testing.T) {
	atBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		var vals, k, dst []float32
		var stride int
		forEachWindow(func(n, offK, offY, total int) {
			if offK == 0 && offY == 0 {
				vals, dst, stride = payload(rng, 4), payload(rng, total), n+rng.Intn(8)
				k = payload(rng, 7+4*stride)
			}
			list := make([]term, (n+offK+offY)%5)
			for j := range list {
				list[j] = term{int32(offK + j*stride), vals[j]}
			}
			want := append([]float32(nil), dst...)
			got := append([]float32(nil), dst...)
			convListGo(list, k, want[offY:offY+n])
			convList(list, k, got[offY:offY+n])
			sameBits(t, "convList", got, want)
		})
	})
}

// depthwiseTaps against its Go definition at every channel count 0..257
// and every pair of input/dst offsets 0..7, over 0 to 9 taps whose input
// and kernel rows lie at unequal alignments, with the specials in input,
// kernel and dst.
func TestDepthwiseTapsMatchesGo(t *testing.T) {
	atBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		var in, k, dst []float32
		var stride int
		forEachWindow(func(n, offIn, offY, total int) {
			if offIn == 0 && offY == 0 {
				stride = n + rng.Intn(8)
				in, k, dst = payload(rng, 7+9*stride), payload(rng, 7+9*(stride+3)), payload(rng, total)
			}
			taps := make([]tap, (n+offIn+offY)%10)
			for j := range taps {
				taps[j] = tap{int32(offIn + j*stride), int32((offIn+offY)%8 + j*(stride+3))}
			}
			want := append([]float32(nil), dst...)
			got := append([]float32(nil), dst...)
			depthwiseTapsGo(taps, in, k, want[offY:offY+n])
			depthwiseTaps(taps, in, k, got[offY:offY+n])
			sameBits(t, "depthwiseTaps", got, want)
		})
	})
}

// The elementwise primitives against their Go definitions at every
// length 0..257 and every pair of offsets 0..7, with the specials in
// every operand, writing into a window of their own and over an input.
// Between them the payloads hold ±0 ties and NaNs on either side of
// maxInto, which a max with its operands swapped resolves the other way,
// and products an FMA would round once instead of twice.
func TestElementwisePrimitivesMatchGo(t *testing.T) {
	cases := []struct {
		name    string
		fn, def func(a float32, x, s, b, y []float32)
	}{
		{"scaleShift", func(_ float32, x, s, b, y []float32) { scaleShift(y, x, s, b) },
			func(_ float32, x, s, b, y []float32) { scaleShiftGo(y, x, s, b) }},
		{"scaleShift in place", func(_ float32, x, s, b, _ []float32) { scaleShift(x, x, s, b) },
			func(_ float32, x, s, b, _ []float32) { scaleShiftGo(x, x, s, b) }},
		{"scale", func(a float32, _, _, _, y []float32) { scale(a, y) },
			func(a float32, _, _, _, y []float32) { scaleGo(a, y) }},
		{"addVec", func(_ float32, x, s, _, y []float32) { addVec(y, x, s) },
			func(_ float32, x, s, _, y []float32) { addVecGo(y, x, s) }},
		{"addVec into x", func(_ float32, x, _, _, y []float32) { addVec(x, x, y) },
			func(_ float32, x, _, _, y []float32) { addVecGo(x, x, y) }},
		{"addVec into y", func(_ float32, x, _, _, y []float32) { addVec(y, x, y) },
			func(_ float32, x, _, _, y []float32) { addVecGo(y, x, y) }},
		{"maxInto", func(_ float32, x, _, _, y []float32) { maxInto(x, y) },
			func(_ float32, x, _, _, y []float32) { maxIntoGo(x, y) }},
	}
	scalars := append([]float32{1, -1.5, 1.0 / 9}, specials...)
	atBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var x, s, b, y []float32
		for _, c := range cases {
			forEachWindow(func(n, offX, offY, total int) {
				if offX == 0 && offY == 0 {
					x, s, b, y = payload(rng, total), payload(rng, total), payload(rng, total), payload(rng, total)
				}
				offS, offB := (offX+offY)%8, (offX+2*offY)%8
				a := scalars[rng.Intn(len(scalars))]
				wantX, wantY := append([]float32(nil), x...), append([]float32(nil), y...)
				gotX, gotY := append([]float32(nil), x...), append([]float32(nil), y...)
				c.def(a, wantX[offX:offX+n], s[offS:offS+n], b[offB:offB+n], wantY[offY:offY+n])
				c.fn(a, gotX[offX:offX+n], s[offS:offS+n], b[offB:offB+n], gotY[offY:offY+n])
				sameBits(t, c.name+" x", gotX, wantX)
				sameBits(t, c.name+" y", gotY, wantY)
			})
		}
	})
}

// ReLU and ReLU6 against their branchy definitions at every length 0..257
// and every pair of offsets 0..7, over inputs thick with the values a
// bit mask or MAXPS/MINPS operand order could get wrong.
func TestReLUMatchesDefinition(t *testing.T) {
	edges := []float32{
		0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000), // ±NaN
		math.Float32frombits(0x7F800001), math.Float32frombits(0xFFFFFFFF), // signalling, all ones
		6, math.Nextafter32(6, 7), math.Nextafter32(6, 5), -6,
		math.Float32frombits(1), math.Float32frombits(0x80000001), // ±smallest denormal
		math.Float32frombits(0x007FFFFF), math.Float32frombits(0x807FFFFF), // ±largest denormal
		math.MaxFloat32, -math.MaxFloat32,
	}
	kernels := []struct {
		name string
		fn   func(out, in []float32)
		def  func(v float32) float32
	}{
		{"relu", relu, func(v float32) float32 {
			if !(v > 0) {
				return 0
			}
			return v
		}},
		{"relu6", relu6, func(v float32) float32 {
			if v < 0 {
				return 0
			} else if v > 6 {
				return 6
			}
			return v
		}},
	}
	atBothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		var in, out []float32
		for _, kr := range kernels {
			forEachWindow(func(n, offIn, offOut, total int) {
				if offIn == 0 && offOut == 0 {
					in, out = make([]float32, total), payload(rng, total)
					for i := range in {
						in[i] = float32(4 * rng.NormFloat64())
						if rng.Intn(2) == 0 {
							in[i] = edges[rng.Intn(len(edges))]
						}
					}
				}
				want := append([]float32(nil), out...)
				got := append([]float32(nil), out...)
				for i, v := range in[offIn : offIn+n] {
					want[offOut+i] = kr.def(v)
				}
				kr.fn(got[offOut:offOut+n], in[offIn:offIn+n])
				sameBits(t, kr.name, got, want)
			})
		}
	})
}

// Every elementwise kernel writing over its own input must leave the
// bits it writes into a fresh tensor — including +0 from ReLU for -0
// and NaN, which a fresh output used to get from its zero fill.
func TestInPlaceKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fresh := func() *Tensor {
		x := randTensor(rand.New(rand.NewSource(9)), 2, 5, 5, 8)
		copy(x.data, []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)), -7, 7, 0})
		return x
	}
	other := randTensor(rng, 2, 5, 5, 8)
	g, b, mu, v := randTensor(rng, 8), randTensor(rng, 8), randTensor(rng, 8), randTensor(rng, 8)
	for i := range v.data {
		v.data[i] = v.data[i]*v.data[i] + 0.1
	}
	alloc := func(to func(dst, t *Tensor) *Tensor) func(*Tensor) *Tensor {
		return func(x *Tensor) *Tensor { return to(New(x.shape...), x) }
	}
	cases := []struct {
		name    string
		alloc   func(x *Tensor) *Tensor
		inPlace func(x *Tensor) *Tensor
	}{
		{"relu", alloc(ReLUTo), func(x *Tensor) *Tensor { return ReLUTo(x, x) }},
		{"relu6", alloc(ReLU6To), func(x *Tensor) *Tensor { return ReLU6To(x, x) }},
		{"sigmoid", alloc(SigmoidTo), func(x *Tensor) *Tensor { return SigmoidTo(x, x) }},
		{"tanh", alloc(TanhTo), func(x *Tensor) *Tensor { return TanhTo(x, x) }},
		{"softmax", alloc(SoftmaxTo), func(x *Tensor) *Tensor { return SoftmaxTo(x, x) }},
		{"gelu", alloc(GELUTo), func(x *Tensor) *Tensor { return GELUTo(x, x) }},
		{"add into a", func(x *Tensor) *Tensor { return add(x, other) }, func(x *Tensor) *Tensor { return AddTo(x, x, other) }},
		{"add into b", func(x *Tensor) *Tensor { return add(other, x) }, func(x *Tensor) *Tensor { return AddTo(x, other, x) }},
		{"batchnorm", func(x *Tensor) *Tensor { return batchNorm(x, g, b, mu, v, 1e-3) }, func(x *Tensor) *Tensor { return BatchNormTo(x, x, g, b, mu, v, 1e-3) }},
	}
	for _, c := range cases {
		want, x := c.alloc(fresh()), fresh()
		if got := c.inPlace(x); got != x {
			t.Errorf("%s: in-place form returned another tensor", c.name)
		}
		for i := range want.data {
			if math.Float32bits(want.data[i]) != math.Float32bits(x.data[i]) {
				t.Errorf("%s: element %d is %x in place, %x allocating", c.name, i, math.Float32bits(x.data[i]), math.Float32bits(want.data[i]))
				break
			}
		}
	}
	if r := alloc(ReLUTo)(fresh()); math.Float32bits(r.data[0]) != 0 || math.Float32bits(r.data[1]) != 0 {
		t.Errorf("ReLU(-0), ReLU(NaN) = %x, %x, want +0", math.Float32bits(r.data[0]), math.Float32bits(r.data[1]))
	}
	defer func() {
		if recover() == nil {
			t.Error("ReLUTo into a differently shaped tensor did not panic")
		}
	}()
	ReLUTo(New(3), New(4))
}
