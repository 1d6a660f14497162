package modelfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"unsafe"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
)

// chunkFields appends one chunk's fields before its checksum, which both
// container versions share: name, tensor index, shape.
func chunkFields(b []byte, name string, idx int, t *tensor.Tensor) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint16(b, uint16(idx))
	b = binary.LittleEndian.AppendUint16(b, uint16(t.Rank()))
	for _, d := range t.Shape() {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b
}

func floatBits(b []byte, t *tensor.Tensor) []byte {
	for _, v := range t.Data() {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// byHand builds a weights container field by field from the layout
// comment in weights.go — version 2, or the version 1 it replaced (each
// chunk's payload and checksum directly behind its fields).
func byHand(version uint16, m *nn.Model, w nn.Weights) []byte {
	var index, data []byte
	var nchunks uint32
	for _, l := range m.Layers {
		for i, t := range w[l.Name] {
			fields := chunkFields(nil, l.Name, i, t)
			sum := crc32.ChecksumIEEE(floatBits(fields, t))
			nchunks++
			if version == 1 {
				index = binary.LittleEndian.AppendUint32(floatBits(append(index, fields...), t), sum)
				continue
			}
			index = binary.LittleEndian.AppendUint32(append(index, fields...), sum)
			data = floatBits(data, t)
		}
	}
	b := append([]byte(nil), weightsMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, version)
	b = binary.LittleEndian.AppendUint32(b, nchunks)
	return append(append(b, index...), data...)
}

func TestEncodeWeightsMatchesLayoutByHand(t *testing.T) {
	for _, m := range []*nn.Model{smallModel(), testModel()} {
		w := nn.InitWeights(m, 5)
		got, err := EncodeWeights(m, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := byHand(2, m, w); !bytes.Equal(got, want) {
			t.Errorf("%s: EncodeWeights (%d bytes) is not the documented layout (%d bytes)", m.Name, len(got), len(want))
		}
	}
}

func TestVersion1ContainerRejected(t *testing.T) {
	m := testModel()
	_, err := DecodeWeights(m, byHand(1, m, nn.InitWeights(m, 5)))
	if err == nil || !strings.Contains(err.Error(), "unsupported weights version 1") {
		t.Fatalf("version 1 container: got %v, want the unsupported-version error", err)
	}
}

// Version 2 regroups the fields of both version 1 formats — float32
// weights, and the quantizer's own 8-/4-bit container — so no container
// changes size: every simulated load time and package size derived from
// it stands.
func TestContainerSizeEqualsVersion1(t *testing.T) {
	for _, name := range zoo.Names() {
		m, err := zoo.Build(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if testing.Short() && m.WeightBytes() > 128<<20 {
			continue
		}
		// Shapes are all a size depends on; zero tensors are never touched.
		w := nn.Weights{}
		v1 := map[int]int{0: weightsHeaderSize, 8: weightsHeaderSize, 4: weightsHeaderSize}
		for _, l := range m.Layers {
			for _, shape := range m.WeightSpecs(l) {
				w[l.Name] = append(w[l.Name], tensor.New(shape...))
				n := shape.Elems()
				v1[0] += 2 + len(l.Name) + 2 + 2 + 4*len(shape) + 4*n + 4
				// The quantizer's chunk: name, index, bits, min, scale,
				// shape, packed codes, CRC.
				v1[8] += 2 + len(l.Name) + 2 + 1 + 4 + 4 + 2 + 4*len(shape) + n + 4
				v1[4] += 2 + len(l.Name) + 2 + 1 + 4 + 4 + 2 + 4*len(shape) + (n+1)/2 + 4
			}
		}
		for bits, want := range v1 {
			got, err := WeightsSize(m, w, bits)
			if err != nil || got != want {
				t.Errorf("%s, %d bits: version 2 container is %d bytes (err %v), version 1 was %d", name, bits, got, err, want)
			}
		}
	}
	for _, m := range []*nn.Model{smallModel(), testModel(), zoo.MobileNet(0)} {
		w := nn.InitWeights(m, 1)
		for _, bits := range []int{0, 8, 4} {
			blob, err := EncodeWeights(m, w, bits)
			size, serr := WeightsSize(m, w, bits)
			if err != nil || serr != nil || len(blob) != size {
				t.Errorf("%s, %d bits: encoded %d bytes, WeightsSize %d (%v, %v)", m.Name, bits, len(blob), size, err, serr)
			}
		}
	}
	m := smallModel()
	if w := nn.InitWeights(m, 1); len(byHand(1, m, w)) != len(byHand(2, m, w)) {
		t.Error("hand-built version 1 and 2 containers differ in size")
	}
}

func sharesMemory(blob []byte, t *tensor.Tensor) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(blob)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(t.Data())))
	return p >= lo && p < lo+uintptr(len(blob))
}

// The container's length is exactly what its index describes: nothing
// may follow the data section and nothing may be missing from it.
func TestDecodeWeightsExactSize(t *testing.T) {
	m := smallModel()
	w := nn.InitWeights(m, 1)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), blob...)) }
	cases := []struct {
		name, want string
		blob       []byte
	}{
		{"trailing byte", "container holds", mutate(func(b []byte) []byte { return append(b, 0) })},
		{"trailing garbage", "container holds", mutate(func(b []byte) []byte { return append(b, 1, 2, 3, 4, 5) })},
		{"second container appended", "container holds", mutate(func(b []byte) []byte { return append(b, blob...) })},
		{"short by one", "container holds", mutate(func(b []byte) []byte { return b[:len(b)-1] })},
		{"index claims more data than present", "container holds", mutate(func(b []byte) []byte {
			// First entry: nameLen(2) "c"(1) idx(2) rank(2), then dim 0.
			binary.LittleEndian.PutUint32(b[weightsHeaderSize+7:], 1000)
			return b
		})},
		{"nchunks larger than the index holds", "chunk 4", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[6:], 5)
			return b
		})},
		{"nchunks beyond the container", "cannot fit", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[6:], math.MaxUint32)
			return b
		})},
	}
	for _, c := range cases {
		if _, err := DecodeWeights(m, c.blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}

	// The same through mergeWeights: a padded partition blob is refused.
	lm := zoo.LinearNet(0)
	lw := nn.InitWeights(lm, 1)
	bounds := []int{1, 3, len(lm.Layers)}
	blobs, err := SplitWeights(lm, lw, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mergeWeights(lm, blobs, bounds); err != nil {
		t.Fatalf("intact split rejected: %v", err)
	}
	blobs[1] = append(blobs[1], 0)
	if _, err := mergeWeights(lm, blobs, bounds); err == nil || !strings.Contains(err.Error(), "partition 1") {
		t.Errorf("mergeWeights of a padded blob: got %v, want partition 1's size error", err)
	}
}

// On a little-endian host a decoded container is not copied: its tensors
// are the blob's own bytes. Proven by writing through the blob.
func TestDecodeWeightsAliasesAlignedContainer(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 17)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := len(blob) - 1 // high byte of the last layer's last bias element
	name := m.Output().Name

	// Flipped before decoding, the byte is a checksum error naming the layer.
	blob[last] ^= 0x80
	if _, err := DecodeWeights(m, blob); err == nil || !strings.Contains(err.Error(), "checksum mismatch") || !strings.Contains(err.Error(), name) {
		t.Fatalf("corrupt payload: got %v, want a checksum error naming %q", err, name)
	}
	blob[last] ^= 0x80

	dec, err := DecodeWeights(m, blob)
	if err != nil {
		t.Fatal(err)
	}
	bias := dec[name][len(dec[name])-1]
	n := bias.Elems() - 1
	before := bias.Data()[n]
	blob[last] ^= 0x80 // the sign bit
	if !hostLittleEndian {
		if bias.Data()[n] != before {
			t.Fatal("big-endian host: decoded weights share memory with the container")
		}
		return
	}
	if got := bias.Data()[n]; math.Float32bits(got) != math.Float32bits(before)^0x80000000 {
		t.Fatalf("flipping the container's last byte after decode left the tensor at %v (was %v): not a view", got, before)
	}
	for lname, ts := range dec {
		for i, tt := range ts {
			if !sharesMemory(blob, tt) {
				t.Errorf("%s[%d] was copied out of an aligned container", lname, i)
			}
		}
	}
}

// A container at a misaligned address cannot be viewed as float32s; it
// decodes, by copy, to the same weights.
func TestDecodeWeightsCopiesMisalignedContainer(t *testing.T) {
	m := testModel()
	w := nn.InitWeights(m, 17)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	aligned, err := DecodeWeights(m, blob)
	if err != nil {
		t.Fatal(err)
	}
	shifted := append([]byte{0}, blob...)[1:]
	dec, err := DecodeWeights(m, shifted)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range w {
		for i, want := range ts {
			if !tensor.AllClose(want, dec[name][i], 0) || !tensor.AllClose(want, aligned[name][i], 0) {
				t.Fatalf("%s[%d] changed in the round trip", name, i)
			}
			if sharesMemory(shifted, dec[name][i]) {
				t.Fatalf("%s[%d] is a view of a misaligned container", name, i)
			}
		}
	}
}

// Every byte of a container of either kind is covered: by the magic, the
// version, the exact-size rule, a quantized entry's width check or a
// chunk checksum.
func TestFlipAtEveryByteErrors(t *testing.T) {
	m := smallModel()
	for _, bits := range []int{0, 8, 4} {
		blob, err := EncodeWeights(m, nn.InitWeights(m, 1), bits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				bad := append([]byte(nil), blob...)
				bad[i] ^= mask
				if _, err := DecodeWeights(m, bad); err == nil {
					t.Fatalf("%d bits: byte %d of %d xor %#x accepted", bits, i, len(blob), mask)
				}
			}
		}
	}
}

// A container big enough to be encoded and decoded by several workers —
// quantized and dequantized by them, at 8 and 4 bits — is the same bytes,
// decodes to the same weights, and reports corruption the same way, as
// one done inline.
func TestParallelChunksMatchInline(t *testing.T) {
	m := zoo.MobileNet(0)
	w := nn.InitWeights(m, 1)
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	for _, bits := range []int{0, 8, 4} {
		tensor.SetMaxWorkers(1)
		inline, err := EncodeWeights(m, w, bits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeWeights(m, inline)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 7} {
			tensor.SetMaxWorkers(workers)
			blob, err := EncodeWeights(m, w, bits)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inline, blob) {
				t.Fatalf("%d bits, %d workers encode different bytes than one", bits, workers)
			}
			got, err := DecodeWeights(m, blob)
			if err != nil {
				t.Fatalf("%d bits, %d workers: %v", bits, workers, err)
			}
			if !bitsEqual(want, got) {
				t.Fatalf("%d bits, %d workers decode different weights than one", bits, workers)
			}
			blob[len(blob)/2] ^= 1
			if _, err := DecodeWeights(m, blob); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("%d bits, %d workers: corrupt payload gave %v", bits, workers, err)
			}
		}
	}
}
