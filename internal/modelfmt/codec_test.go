package modelfmt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
)

// Digests of the two wire formats: the tensor format's computed with the
// encoder as it was before the codecs became single-pass, the weights
// container's with the first version-2 encoder. A change to either
// format — field order, widths, checksum coverage — changes a digest.
const (
	pinnedWeightsSHA256 = "557ba2d1b8f1b0b792826f9c43af70499856f113c1b35141078ca09eae1caf06"
	pinnedTensorSHA256  = "46f3896f0d7e44f696814e9ad2202a3d387b6289edae6c2c14f63f1263545d78"
)

func pinnedTensor() *tensor.Tensor {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(2, 3, 4, 5)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	return x
}

func TestWireFormatPinned(t *testing.T) {
	m := testModel()
	blob, err := EncodeWeights(m, nn.InitWeights(m, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != pinnedWeightsSHA256 {
		t.Errorf("weights container format drifted: %d bytes, sha256 %s", len(blob), got)
	}
	sum = sha256.Sum256(EncodeTensor(pinnedTensor()))
	if got := hex.EncodeToString(sum[:]); got != pinnedTensorSHA256 {
		t.Errorf("tensor wire format drifted: sha256 %s", got)
	}
}

// bytesPerRun reports the heap bytes one call of f allocates.
func bytesPerRun(f func()) float64 {
	const runs = 5
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// The codecs move whole models on the cold path, so their allocation is
// budgeted: an encode allocates its output and nothing of that order
// besides; a tensor decode the float payload it returns; a weights decode
// no float payload at all — its tensors are views of the container — only
// the index it parsed.
func TestCodecAllocBudget(t *testing.T) {
	m := zoo.MobileNet(0)
	w := nn.InitWeights(m, 1)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	act := tensor.New(4, 28, 28, 64)
	actBlob := EncodeTensor(act)

	decodeBudget := 0.02 * float64(len(blob))
	if !hostLittleEndian {
		decodeBudget = 1.05 * float64(m.WeightBytes()) // the copying path
	}
	budgets := []struct {
		name   string
		budget float64
		f      func()
	}{
		{"EncodeWeights", 1.05 * float64(len(blob)), func() { _, _ = EncodeWeights(m, w, 0) }},
		{"DecodeWeights", decodeBudget, func() { _, _ = DecodeWeights(m, blob) }},
		{"EncodeTensor", 1.05 * float64(len(actBlob)), func() { EncodeTensor(act) }},
		{"DecodeTensor", 1.05 * float64(4*act.Elems()), func() { _, _ = DecodeTensor(actBlob) }},
	}
	for _, b := range budgets {
		if got := bytesPerRun(b.f); got > b.budget {
			t.Errorf("%s allocates %.0f bytes a call, budget %.0f", b.name, got, b.budget)
		}
	}

	// Counted: the tensor encoder makes its output and nothing else; the
	// weights encoder adds to what validating the weights already costs
	// its output, two per-chunk tables and what starting its workers
	// takes — nothing per chunk.
	if n := testing.AllocsPerRun(10, func() { EncodeTensor(act) }); n != 1 {
		t.Errorf("EncodeTensor makes %v allocations, want 1", n)
	}
	check := testing.AllocsPerRun(10, func() { _ = nn.CheckWeights(m, w) })
	extra := float64(5 + 2*tensor.MaxWorkers())
	if n := testing.AllocsPerRun(10, func() { _, _ = EncodeWeights(m, w, 0) }); n > check+extra {
		t.Errorf("EncodeWeights makes %v allocations, CheckWeights alone %v: want at most %v more", n, check, extra)
	}
}

// smallModel's weights container is a few hundred bytes, small enough to
// decode every prefix of it.
func smallModel() *nn.Model {
	b := nn.NewBuilder("small", 4, 4, 1)
	x := b.Conv("c", b.Input(), 2, 1, 1, 1, tensor.Same, nn.ActReLU)
	x = b.GlobalAvgPool("gap", x)
	b.Dense("fc", x, 3, nn.ActSoftmax)
	return b.Model()
}

func TestTruncationAtEveryByteErrors(t *testing.T) {
	m := smallModel()
	for _, bits := range []int{0, 8, 4} {
		blob, err := EncodeWeights(m, nn.InitWeights(m, 1), bits)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeWeights(m, blob); err != nil {
			t.Fatalf("intact %d-bit weights rejected: %v", bits, err)
		}
		for n := 0; n < len(blob); n++ {
			if _, err := DecodeWeights(m, blob[:n:n]); err == nil {
				t.Fatalf("%d-bit weights truncated to %d of %d bytes accepted", bits, n, len(blob))
			}
		}
	}
	tb := EncodeTensor(pinnedTensor())
	for n := 0; n < len(tb); n++ {
		if _, err := DecodeTensor(tb[:n:n]); err == nil {
			t.Fatalf("tensor truncated to %d of %d bytes accepted", n, len(tb))
		}
	}
}

// oneChunkBlob is a container with a single index entry named "x" whose
// shape is dims and whose checksum is valid for an empty payload; bits 0
// makes it float32, anything else quantized at that width.
func oneChunkBlob(bits int, dims ...uint32) []byte {
	magic := weightsMagic
	if bits != 0 {
		magic = quantizedMagic
	}
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, weightsVersion)
	b = binary.LittleEndian.AppendUint32(b, 1) // nchunks
	entry := len(b)
	b = binary.LittleEndian.AppendUint16(b, 1) // name length
	b = append(b, 'x')
	b = binary.LittleEndian.AppendUint16(b, 0) // index
	if bits != 0 {
		b = append(b, byte(bits))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(0)) // min
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(1)) // scale
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(dims))) // rank
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[entry:]))
}

// Index entries no real tensor has are refused before anything is sized
// from them. The shape 2^21 × 2^21 × 2^21 wraps the int element product
// to -2^63; version 1's float32 chunk reader passed that through its
// bytes-remaining test into make(). So did the quantizer's own container,
// with the 42-byte blob of the 2^24 × 2^24 × 2^15 row.
func TestDecodeWeightsRejectsOverflowingShape(t *testing.T) {
	deep := oneChunkBlob(0, 1<<21, 1<<21, 1<<21)
	binary.LittleEndian.PutUint16(deep[15:], maxDecodeRank+1)
	for _, c := range []struct {
		name, want string
		blob       []byte
	}{
		{"2^21·2^21·2^21", "decode limit", oneChunkBlob(0, 1<<21, 1<<21, 1<<21)},
		{"rank beyond any tensor", "implausible rank", deep},
		{"8-bit 2^24·2^24·2^15", "decode limit", oneChunkBlob(8, 1<<24, 1<<24, 1<<15)},
		{"5-bit codes", "unsupported quantization width 5", oneChunkBlob(5, 1)},
	} {
		if _, err := DecodeWeights(testModel(), c.blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}
	if n := len(oneChunkBlob(8, 1<<24, 1<<24, 1<<15)); n != 42 {
		t.Errorf("the quantized reproducer is %d bytes, want 42", n)
	}
}
