package coordinator

import (
	"testing"

	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
)

func TestParsePayloadBareKey(t *testing.T) {
	job, key, err := parsePayload([]byte("serfer/jobs/1/out0"))
	if err != nil {
		t.Fatal(err)
	}
	if job != "serfer/jobs/1" || key != "serfer/jobs/1/out0" {
		t.Fatalf("parsed job %q, key %q", job, key)
	}
	if _, _, err := parsePayload([]byte("noslash")); err == nil {
		t.Fatal("keyless payload accepted")
	}
	if _, _, err := parsePayload(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
}

func TestPackageWeightsQuantizedSize(t *testing.T) {
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 1)
	bounds := []int{1, len(m.Layers)}
	floatBlobs, floatSizes, err := packageWeights(m, w, bounds, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// A timing-only deployment sizes the float package without making it.
	if blobs, sizes, err := packageWeights(m, w, bounds, 0, true); err != nil || blobs[0] != nil ||
		sizes[0] != floatSizes[0] || sizes[0] != int64(len(floatBlobs[0])) {
		t.Fatalf("size-only float package: blob %d bytes, size %v, want nil and %d (err %v)", len(blobs[0]), sizes, len(floatBlobs[0]), err)
	}
	q8Blobs, q8Sizes, err := packageWeights(m, w, bounds, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if q8Sizes[0] != int64(len(q8Blobs[0])) {
		t.Fatalf("8-bit package reported as %d bytes, is %d", q8Sizes[0], len(q8Blobs[0]))
	}
	if len(q8Blobs[0])*3 > len(floatBlobs[0]) {
		t.Fatalf("8-bit package %d bytes not ≪ float %d", len(q8Blobs[0]), len(floatBlobs[0]))
	}
	// It sizes a quantized package without making it, too.
	if blobs, sizes, err := packageWeights(m, w, bounds, 8, true); err != nil || blobs[0] != nil || sizes[0] != q8Sizes[0] {
		t.Fatalf("size-only 8-bit package: blob %d bytes, size %v, want nil and %d (err %v)", len(blobs[0]), sizes, q8Sizes[0], err)
	}
	// The quantized blob decodes to valid weights for the partition.
	part, _ := m.Partition(1, len(m.Layers))
	qw, err := modelfmt.DecodeWeights(part, q8Blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.CheckWeights(part, qw); err != nil {
		t.Fatal(err)
	}
}

func TestDeployRejectsBadQuantBits(t *testing.T) {
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 1)
	e := newEnv()
	cfg := e.config()
	cfg.QuantizeBits = 7
	if _, err := Deploy(cfg, m, w, nil); err == nil {
		t.Fatal("nil plan + bad bits accepted")
	}
}
