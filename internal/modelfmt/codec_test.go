package modelfmt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	blob, err := EncodeWeights(m, nn.InitWeights(m, 1))
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
	blob, err := EncodeWeights(m, w)
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
		{"EncodeWeights", 1.05 * float64(len(blob)), func() { _, _ = EncodeWeights(m, w) }},
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
	if n := testing.AllocsPerRun(10, func() { _, _ = EncodeWeights(m, w) }); n > check+extra {
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
	blob, err := EncodeWeights(m, nn.InitWeights(m, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWeights(m, blob); err != nil {
		t.Fatalf("intact weights rejected: %v", err)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeWeights(m, blob[:n:n]); err == nil {
			t.Fatalf("weights truncated to %d of %d bytes accepted", n, len(blob))
		}
	}
	tb := EncodeTensor(pinnedTensor())
	for n := 0; n < len(tb); n++ {
		if _, err := DecodeTensor(tb[:n:n]); err == nil {
			t.Fatalf("tensor truncated to %d of %d bytes accepted", n, len(tb))
		}
	}
}

// hostileWeightsBlob is a one-chunk container whose index entry has the
// rank-3 shape 2^21 × 2^21 × 2^21, which wraps the int element product to
// -2^63. The chunk reader used to pass that through its bytes-remaining
// test into make().
func hostileWeightsBlob() []byte {
	b := append([]byte(nil), weightsMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, weightsVersion)
	b = binary.LittleEndian.AppendUint32(b, 1) // nchunks
	b = binary.LittleEndian.AppendUint16(b, 1) // name length
	b = append(b, 'x')
	b = binary.LittleEndian.AppendUint16(b, 0) // index
	b = binary.LittleEndian.AppendUint16(b, 3) // rank
	for i := 0; i < 3; i++ {
		b = binary.LittleEndian.AppendUint32(b, 1<<21)
	}
	return binary.LittleEndian.AppendUint32(b, 0) // crc
}

func TestDecodeWeightsRejectsOverflowingShape(t *testing.T) {
	_, err := DecodeWeights(testModel(), hostileWeightsBlob())
	if err == nil || !strings.Contains(err.Error(), "decode limit") {
		t.Fatalf("overflowing shape: got error %v, want the element-limit error", err)
	}
	// A rank beyond any real tensor is refused before its dims are read.
	deep := hostileWeightsBlob()
	binary.LittleEndian.PutUint16(deep[15:], maxDecodeRank+1)
	if _, err := DecodeWeights(testModel(), deep); err == nil || !strings.Contains(err.Error(), "implausible rank") {
		t.Fatalf("rank %d: got error %v, want the rank error", maxDecodeRank+1, err)
	}
}
