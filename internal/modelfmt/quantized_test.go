package modelfmt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
)

// affineSpec states the affine codec on its own: a tensor's codes span
// [min, max] in 2^bits−1 equal steps (a constant tensor takes step 1),
// each value rounds to the nearest code, and code c decodes to
// min + scale·c.
func affineSpec(t *tensor.Tensor, bits int) *tensor.Tensor {
	d := t.Data()
	var mn, mx float32
	if len(d) > 0 {
		mn, mx = slices.Min(d), slices.Max(d)
	}
	top := float64(int(1)<<bits - 1)
	scale := (mx - mn) / float32(top)
	if scale == 0 {
		scale = 1
	}
	out := make([]float32, len(d))
	for i, v := range d {
		code := math.Min(math.Max(math.Round(float64((v-mn)/scale)), 0), top)
		out[i] = mn + scale*float32(code)
	}
	return tensor.FromSlice(out, t.Shape()...)
}

// bitsEqual reports whether two weight sets have the same tensors, shape
// and math.Float32bits alike.
func bitsEqual(a, b nn.Weights) bool {
	same := func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }
	for name, ts := range a {
		if len(ts) != len(b[name]) {
			return false
		}
		for i, t := range ts {
			u := b[name][i]
			if !t.Shape().Equal(u.Shape()) || !slices.EqualFunc(t.Data(), u.Data(), same) {
				return false
			}
		}
	}
	return len(a) == len(b)
}

// A quantized container decodes to exactly what the specification says,
// bit for bit.
func TestQuantizedMatchesAffineSpec(t *testing.T) {
	for _, m := range []*nn.Model{zoo.TinyCNN(0), zoo.MobileNet(0)} {
		w := nn.InitWeights(m, 9)
		for _, bits := range []int{8, 4} {
			blob, err := EncodeWeights(m, w, bits)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeWeights(m, blob)
			if err != nil {
				t.Fatalf("%s, %d bits: %v", m.Name, bits, err)
			}
			want := nn.Weights{}
			for name, ts := range w {
				for _, t := range ts {
					want[name] = append(want[name], affineSpec(t, bits))
				}
			}
			if !bitsEqual(want, dec) {
				t.Fatalf("%s, %d bits: decode(encode(w)) is not the affine specification", m.Name, bits)
			}
		}
	}
}

func TestQuantizeRejectsBadBits(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 1)
	for _, bits := range []int{5, 3, -4, 32} {
		want := fmt.Sprintf("width %d", bits)
		if _, err := EncodeWeights(m, w, bits); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("EncodeWeights at %d bits: got %v, want an error naming %q", bits, err, want)
		}
		if _, err := WeightsSize(m, w, bits); err == nil {
			t.Errorf("WeightsSize at %d bits accepted", bits)
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}

// affineRoundTrip quantizes src and dequantizes the codes.
func affineRoundTrip(src []float32, bits int) (back []float32, codes []byte, scale float32) {
	codes = make([]byte, payloadSize(len(src), bits))
	mn, scale := quantize(codes, src, bits)
	return dequantize(codes, len(src), bits, mn, scale), codes, scale
}

// Property: per-element reconstruction error is bounded by scale/2 (plus
// float rounding), for both bit widths.
func TestQuantizationErrorBound(t *testing.T) {
	f := func(seed int64, useFourBit bool) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 8
		if useFourBit {
			bits = 4
		}
		orig := randTensor(rng, 3, 5, 2)
		back, _, scale := affineRoundTrip(orig.Data(), bits)
		bound := float64(scale)/2 + 1e-5
		return tensor.MaxAbsDiff(orig, tensor.FromSlice(back, 3, 5, 2)) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeConstantTensor(t *testing.T) {
	c := tensor.New(4)
	c.Fill(3.25)
	back, _, _ := affineRoundTrip(c.Data(), 8)
	if tensor.MaxAbsDiff(c, tensor.FromSlice(back, 4)) > 1e-6 {
		t.Fatalf("constant tensor not preserved: %v", back)
	}
}

func TestFourBitPacksTwoPerByte(t *testing.T) {
	x := randTensor(rand.New(rand.NewSource(1)), 7) // odd length
	back, codes, _ := affineRoundTrip(x.Data(), 4)
	if len(codes) != 4 {
		t.Fatalf("packed %d bytes for 7 elements, want 4", len(codes))
	}
	if len(back) != 7 {
		t.Fatal("element count changed")
	}
}

func TestQuantizeWeightsRoundTrip(t *testing.T) {
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 9)
	f32, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	q8, err := EncodeWeights(m, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The two containers differ only in their payloads and in the
	// quantized entries' affine fields. 8-bit payload ≈ 1/4 of float32.
	nchunks := 0
	for _, ts := range w {
		nchunks += len(ts)
	}
	payload := int64(len(q8)-len(f32)-affineSize*nchunks) + m.WeightBytes()
	if got, want := payload, m.WeightBytes()/4; got < want-16 || got > want+16 {
		t.Fatalf("quantized payload %d bytes, want ≈%d", got, want)
	}
	dw, err := DecodeWeights(m, q8)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.CheckWeights(m, dw); err != nil {
		t.Fatalf("dequantized weights invalid: %v", err)
	}
}

// A quantized container that is corrupted, truncated or carries a wrong
// magic is refused.
func TestDecodeDetectsCorruption(t *testing.T) {
	m := zoo.TinyCNN(0)
	blob, err := EncodeWeights(m, nn.InitWeights(m, 9), 8)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := DecodeWeights(m, bad); err == nil {
		t.Fatal("corrupted container accepted")
	}
	if _, err := DecodeWeights(m, blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated container accepted")
	}
	bad = append([]byte(nil), blob...)
	copy(bad, "AMPX")
	if _, err := DecodeWeights(m, bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// End-to-end: a model served with dequantized 8-bit weights must stay
// close to the float model (small relative logit error on TinyCNN).
func TestQuantizedInferenceStaysClose(t *testing.T) {
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 3)
	blob, err := EncodeWeights(m, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := DecodeWeights(m, blob)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	in := randTensor(rng, 1, 32, 32, 3)
	a, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Forward(dw, in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(a, b); d > 0.15 {
		t.Fatalf("8-bit quantization shifted softmax outputs by %v", d)
	}
}

// Per-partition quantized containers merge to the whole model's.
func TestMergeWeightsAcceptsQuantized(t *testing.T) {
	m := zoo.LinearNet(0)
	w := nn.InitWeights(m, 1)
	bounds := []int{1, 3, len(m.Layers)}
	for _, bits := range []int{8, 4} {
		whole, err := EncodeWeights(m, w, bits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeWeights(m, whole)
		if err != nil {
			t.Fatal(err)
		}
		blobs := make([][]byte, len(bounds)-1)
		for p := range blobs {
			part, err := m.Partition(bounds[p], bounds[p+1])
			if err != nil {
				t.Fatal(err)
			}
			if blobs[p], err = EncodeWeights(part, nn.SubsetWeights(m, w, bounds[p], bounds[p+1]), bits); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := mergeWeights(m, blobs, bounds)
		if err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		if !bitsEqual(want, merged) {
			t.Fatalf("%d bits: merged partitions differ from the whole model's container", bits)
		}
	}
}

func TestCompressionScale(t *testing.T) {
	if s := CompressionScale(8); math.Abs(s-0.27) > 1e-9 {
		t.Fatalf("8-bit scale %v", s)
	}
	if s := CompressionScale(4); math.Abs(s-0.145) > 1e-9 {
		t.Fatalf("4-bit scale %v", s)
	}
	if s := CompressionScale(0); s != 1 {
		t.Fatalf("float32 scale %v", s)
	}
}
