package modelfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ampsinf/internal/nn"
	"ampsinf/internal/tensor"
)

// Weights container layout (all integers little-endian):
//
//	magic   [4]byte  "AMPW"
//	version uint16   (1)
//	nchunks uint32
//	chunks  × nchunks:
//	  nameLen uint16, name []byte   — layer name
//	  index   uint16                — tensor index within the layer
//	  rank    uint16, dims []uint32 — tensor shape
//	  data    []float32 (bits as uint32)
//	  crc     uint32                — CRC-32 over name+index+shape+data
//
// Chunks appear in the model's topological order, so splitting by layer
// range is a contiguous byte-range operation conceptually; Split
// re-encodes for simplicity and safety.

var weightsMagic = [4]byte{'A', 'M', 'P', 'W'}

const (
	weightsVersion    = 1
	weightsHeaderSize = 4 + 2 + 4
	// maxChunkDim bounds a single weight dimension; no layer of any model
	// here comes near it.
	maxChunkDim = 1 << 24
)

// chunkSize is the encoded size of one chunk, checksum included.
func chunkSize(name string, t *tensor.Tensor) int {
	return 2 + len(name) + 2 + shapeSize(t.Rank()) + 4*t.Elems() + 4
}

// EncodeWeights serializes weights for all parameterized layers of m, in
// topological order.
func EncodeWeights(m *nn.Model, w nn.Weights) ([]byte, error) {
	if err := nn.CheckWeights(m, w); err != nil {
		return nil, fmt.Errorf("modelfmt: %w", err)
	}
	size := weightsHeaderSize
	var nchunks uint32
	for _, l := range m.Layers {
		if len(l.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("modelfmt: layer name too long (%d bytes)", len(l.Name))
		}
		for _, t := range w[l.Name] {
			size += chunkSize(l.Name, t)
			nchunks++
		}
	}
	out := make([]byte, size)
	copy(out, weightsMagic[:])
	binary.LittleEndian.PutUint16(out[4:], weightsVersion)
	binary.LittleEndian.PutUint32(out[6:], nchunks)
	off := weightsHeaderSize
	for _, l := range m.Layers {
		for i, t := range w[l.Name] {
			off = putChunk(out, off, l.Name, i, t)
		}
	}
	return out, nil
}

// DecodeWeights parses a weights container and verifies every chunk's
// checksum. The result is validated against the model's weight specs.
// Arbitrary (corrupt or hostile) input errors cleanly: it never panics
// and never allocates more than a small multiple of len(data).
func DecodeWeights(m *nn.Model, data []byte) (nn.Weights, error) {
	c := cursor{data: data}
	if magic, ok := c.bytes(4); !ok || [4]byte(magic) != weightsMagic {
		return nil, fmt.Errorf("modelfmt: bad weights magic")
	}
	if ver, ok := c.u16(); !ok || ver != weightsVersion {
		return nil, fmt.Errorf("modelfmt: unsupported weights version %d", ver)
	}
	nchunks, ok := c.u32()
	if !ok {
		return nil, fmt.Errorf("modelfmt: truncated header")
	}
	w := make(nn.Weights)
	for n := uint32(0); n < nchunks; n++ {
		name, idx, t, err := c.chunk()
		if err != nil {
			return nil, fmt.Errorf("modelfmt: chunk %d: %w", n, err)
		}
		if int(idx) != len(w[name]) {
			return nil, fmt.Errorf("modelfmt: chunk %d for %q out of order (index %d, have %d)", n, name, idx, len(w[name]))
		}
		w[name] = append(w[name], t)
	}
	if err := nn.CheckWeights(m, w); err != nil {
		return nil, fmt.Errorf("modelfmt: decoded weights invalid: %w", err)
	}
	return w, nil
}

// SplitWeights encodes per-partition weight containers for the layer
// ranges implied by bounds: partition p covers layers [bounds[p],
// bounds[p+1]). Each blob validates against the corresponding partition
// model produced by (*nn.Model).Partition.
func SplitWeights(m *nn.Model, w nn.Weights, bounds []int) ([][]byte, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("modelfmt: need at least two bounds, got %v", bounds)
	}
	blobs := make([][]byte, 0, len(bounds)-1)
	for p := 0; p+1 < len(bounds); p++ {
		lo, hi := bounds[p], bounds[p+1]
		part, err := m.Partition(lo, hi)
		if err != nil {
			return nil, err
		}
		sub := nn.SubsetWeights(m, w, lo, hi)
		blob, err := EncodeWeights(part, sub)
		if err != nil {
			return nil, fmt.Errorf("modelfmt: partition %d: %w", p, err)
		}
		blobs = append(blobs, blob)
	}
	return blobs, nil
}

// MergeWeights reassembles full-model weights from per-partition blobs
// produced by SplitWeights with the same bounds.
func MergeWeights(m *nn.Model, blobs [][]byte, bounds []int) (nn.Weights, error) {
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

// putChunk writes one chunk and its checksum at out[off:] and returns the
// new offset. The caller has sized out with chunkSize.
func putChunk(out []byte, off int, name string, idx int, t *tensor.Tensor) int {
	start := off
	binary.LittleEndian.PutUint16(out[off:], uint16(len(name)))
	off += 2
	off += copy(out[off:], name)
	binary.LittleEndian.PutUint16(out[off:], uint16(idx))
	off += 2
	off = putShape(out, off, t.Shape())
	off = putFloats(out, off, t.Data())
	binary.LittleEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[start:off]))
	return off + 4
}

// chunk reads one chunk at the cursor and verifies its checksum.
func (c *cursor) chunk() (name string, idx uint16, t *tensor.Tensor, err error) {
	start := c.off
	nameLen, ok := c.u16()
	if !ok {
		return "", 0, nil, fmt.Errorf("truncated name length")
	}
	nameBytes, ok := c.bytes(int(nameLen))
	if !ok {
		return "", 0, nil, fmt.Errorf("truncated name")
	}
	if idx, ok = c.u16(); !ok {
		return "", 0, nil, fmt.Errorf("truncated index")
	}
	shape, elems, err := c.shape(maxChunkDim)
	if err != nil {
		return "", 0, nil, err
	}
	payload, ok := c.bytes(4 * elems)
	if !ok {
		return "", 0, nil, fmt.Errorf("chunk claims %d elements, only %d bytes remain", elems, c.remaining())
	}
	end := c.off
	wantCRC, ok := c.u32()
	if !ok {
		return "", 0, nil, fmt.Errorf("truncated checksum")
	}
	if crc32.ChecksumIEEE(c.data[start:end]) != wantCRC {
		return "", 0, nil, fmt.Errorf("checksum mismatch for %q (corrupt weights)", nameBytes)
	}
	return string(nameBytes), idx, tensor.FromSlice(getFloats(payload), shape...), nil
}
