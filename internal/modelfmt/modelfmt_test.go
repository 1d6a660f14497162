package modelfmt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
)

func testModel() *nn.Model { return zoo.TinyCNN(0) }

// mergeWeights reassembles full-model weights from per-partition blobs
// produced by SplitWeights (or encoded, of either kind, per partition)
// with the same bounds. Like DecodeWeights'
// result, the merged weights are read-only and may be views of blobs.
func mergeWeights(m *nn.Model, blobs [][]byte, bounds []int) (nn.Weights, error) {
	if len(blobs) != len(bounds)-1 {
		return nil, fmt.Errorf("modelfmt: %d blobs for %d partitions", len(blobs), len(bounds)-1)
	}
	w := make(nn.Weights)
	for p, blob := range blobs {
		part, err := m.Partition(bounds[p], bounds[p+1])
		if err != nil {
			return nil, err
		}
		pw, err := DecodeWeights(part, blob)
		if err != nil {
			return nil, fmt.Errorf("modelfmt: partition %d: %w", p, err)
		}
		for name, ts := range pw {
			w[name] = ts
		}
	}
	if err := nn.CheckWeights(m, w); err != nil {
		return nil, fmt.Errorf("modelfmt: merged weights invalid: %w", err)
	}
	return w, nil
}

func TestWeightsRoundTrip(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 17)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := DecodeWeights(m, blob)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range w {
		for i, tt := range ts {
			if !tensor.AllClose(tt, w2[name][i], 0) {
				t.Fatalf("weights %s[%d] changed in round trip", name, i)
			}
		}
	}
}

func TestWeightsDetectCorruption(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 17)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte somewhere in the middle.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := DecodeWeights(m, bad); err == nil {
		t.Fatal("corrupted weights accepted")
	}
}

func TestWeightsDetectTruncation(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 17)
	blob, _ := EncodeWeights(m, w, 0)
	if _, err := DecodeWeights(m, blob[:len(blob)/3]); err == nil {
		t.Fatal("truncated weights accepted")
	}
	if _, err := DecodeWeights(m, []byte("AMPX")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSplitMergeRoundTrip(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 3)
	segs := m.Segments()
	// Split into 3 partitions.
	third := len(segs) / 3
	b0 := segs[0].Lo
	b1 := segs[third].Lo
	b2 := segs[2*third].Lo
	bounds := []int{b0, b1, b2, len(m.Layers)}
	blobs, err := SplitWeights(m, w, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 3 {
		t.Fatalf("%d blobs, want 3", len(blobs))
	}
	merged, err := mergeWeights(m, blobs, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range w {
		for i, tt := range ts {
			if !tensor.AllClose(tt, merged[name][i], 0) {
				t.Fatalf("merged weights %s[%d] differ", name, i)
			}
		}
	}
}

func TestSplitWeightsRejectsInvalidBounds(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 3)
	if _, err := SplitWeights(m, w, []int{1}); err == nil {
		t.Fatal("single bound accepted")
	}
	if _, err := SplitWeights(m, w, []int{5, 2}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

// Property: split/merge round-trips for random partition counts on a
// chain model (every boundary valid).
func TestSplitMergeProperty(t *testing.T) {
	m := zoo.LinearNet(0)
	w := nn.InitWeights(m, 9)
	whole, _ := EncodeWeights(m, w, 0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := len(m.Layers)
		bounds := []int{1}
		for p := 2; p < n; p++ {
			if rng.Intn(3) == 0 {
				bounds = append(bounds, p)
			}
		}
		bounds = append(bounds, n)
		blobs, err := SplitWeights(m, w, bounds)
		if err != nil {
			return false
		}
		merged, err := mergeWeights(m, blobs, bounds)
		if err != nil {
			return false
		}
		re, err := EncodeWeights(m, merged, 0)
		if err != nil {
			return false
		}
		return bytes.Equal(whole, re)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Partitioned weights must drive partitioned inference identically to the
// whole model: encode, split, decode each part, run the pipeline.
func TestSplitWeightsDrivePartitionedInference(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 21)
	segs := m.Segments()
	mid := segs[len(segs)/2].Lo
	bounds := []int{1, mid, len(m.Layers)}
	blobs, err := SplitWeights(m, w, bounds)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(4))
	in := tensor.New(m.InputShape...)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.Float64())
	}
	want, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}

	cur := in
	for p := 0; p+1 < len(bounds); p++ {
		part, err := m.Partition(bounds[p], bounds[p+1])
		if err != nil {
			t.Fatal(err)
		}
		pw, err := DecodeWeights(part, blobs[p])
		if err != nil {
			t.Fatal(err)
		}
		cur, err = part.Forward(pw, cur)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !tensor.AllClose(want, cur, 0) {
		t.Fatalf("partitioned inference differs by %v", tensor.MaxAbsDiff(want, cur))
	}
}

func TestEncodedSizeTracksParamCount(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 1)
	blob, _ := EncodeWeights(m, w, 0)
	paramBytes := m.WeightBytes()
	if int64(len(blob)) < paramBytes {
		t.Fatalf("container %d bytes smaller than raw params %d", len(blob), paramBytes)
	}
	// Overhead should be tiny relative to payload.
	if int64(len(blob)) > paramBytes+int64(4096) {
		t.Fatalf("container overhead %d bytes too large", int64(len(blob))-paramBytes)
	}
}
