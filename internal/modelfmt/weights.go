// Package modelfmt serializes weights in the role the paper's HDF5
// weight files play: a binary weights container with per-chunk
// integrity checksums that can be split by layer range, so each
// partition's deployment package carries its own blob.
package modelfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"ampsinf/internal/nn"
	"ampsinf/internal/tensor"
)

// Weights container layout, version 2 (all integers little-endian):
//
//	magic   [4]byte  kind: "AMPW" float32, "AMPQ" affine codes
//	version uint16   (2)
//	nchunks uint32
//	index   × nchunks:
//	  nameLen uint16, name []byte   — layer name
//	  index   uint16                — tensor index within the layer
//	  AMPQ only:
//	  bits    uint8                 — code width, 8 or 4
//	  min     float32, scale float32 — value = min + scale·code
//	  rank    uint16, dims []uint32 — tensor shape
//	  crc     uint32                — CRC-32 over this entry's bytes
//	                                  before crc, then its payload
//	data    × nchunks, back to back: float32s (bits as uint32), or codes
//	        packed at bit i·bits (see quantize)
//
// Chunks appear in the model's topological order. The fields are those
// of the two version 1 formats — float32 weights, and the quantizer's
// own container — regrouped, every payload moved behind the index, so a
// container's size is unchanged, and it is exact: header + index + Σ
// payload must equal the blob's length. With float32 payloads contiguous
// and each a multiple of four bytes, aligning the data section aligns
// every payload: the encoder places the container so that it is, and the
// decoder then returns tensors that are views of the blob (see
// DecodeWeights).

var (
	weightsMagic   = [4]byte{'A', 'M', 'P', 'W'}
	quantizedMagic = [4]byte{'A', 'M', 'P', 'Q'}
)

const (
	weightsVersion    = 2
	weightsHeaderSize = 4 + 2 + 4
	// maxChunkDim bounds a single weight dimension; no layer of any model
	// here comes near it.
	maxChunkDim = 1 << 24
	// minEntrySize is an index entry with an empty name and rank 0.
	minEntrySize = 2 + 2 + 2 + 4
	// affineSize is the bits, min and scale fields of an AMPQ entry.
	affineSize = 1 + 4 + 4
)

// chunk is one tensor's place in a container: its index entry up to the
// checksum field at [entry, crc), its min and scale fields (quantized
// only) at affine, its payload at [data, end). floats is the encoder's
// source and the decoder's result.
type chunk struct {
	entry, affine, crc, data, end int
	floats                        []float32
	bits                          int
	name                          []byte
	idx                           uint16
	shape                         []int
	want                          uint32
	bad                           bool
}

// eachChunk calls fn for every chunk index below n, from up to
// tensor.MaxWorkers() goroutines (the caller's among them) that take the
// next index as they finish one. fn may touch nothing shared but its own
// chunk and that chunk's byte ranges.
func eachChunk(n int, fn func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for k := min(tensor.MaxWorkers(), n); k > 1; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// weightsLayout validates w against m and bits, and sizes its container:
// the bytes of the index and data sections and the number of chunks.
func weightsLayout(m *nn.Model, w nn.Weights, bits int) (index, data, nchunks int, err error) {
	if err := CheckQuantBits(bits); err != nil {
		return 0, 0, 0, err
	}
	if err := nn.CheckWeights(m, w); err != nil {
		return 0, 0, 0, fmt.Errorf("modelfmt: %w", err)
	}
	affine := 0
	if bits > 0 {
		affine = affineSize
	}
	for _, l := range m.Layers {
		if len(l.Name) > math.MaxUint16 {
			return 0, 0, 0, fmt.Errorf("modelfmt: layer name too long (%d bytes)", len(l.Name))
		}
		for _, t := range w[l.Name] {
			index += 2 + len(l.Name) + 2 + affine + shapeSize(t.Rank()) + 4
			data += payloadSize(t.Elems(), bits)
			nchunks++
		}
	}
	return index, data, nchunks, nil
}

// WeightsSize is the length of what EncodeWeights(m, w, bits) returns,
// without encoding anything.
func WeightsSize(m *nn.Model, w nn.Weights, bits int) (int, error) {
	index, data, _, err := weightsLayout(m, w, bits)
	return weightsHeaderSize + index + data, err
}

// EncodeWeights serializes weights for all parameterized layers of m, in
// topological order: as float32 when bits is 0, else affinely quantized
// to 8 or 4 bits per value. The returned slice is placed in its
// allocation so that the data section starts on a 4-byte boundary.
func EncodeWeights(m *nn.Model, w nn.Weights, bits int) ([]byte, error) {
	index, data, nchunks, err := weightsLayout(m, w, bits)
	if err != nil {
		return nil, err
	}
	// Three bytes of slack let the data section, not the header, take the
	// allocation's alignment.
	dataOff := weightsHeaderSize + index
	buf := make([]byte, dataOff+data+3)
	skip := int(-(uintptr(unsafe.Pointer(unsafe.SliceData(buf))) + uintptr(dataOff)) & 3)
	out := buf[skip : skip+dataOff+data : skip+dataOff+data]

	magic := weightsMagic
	if bits > 0 {
		magic = quantizedMagic
	}
	copy(out, magic[:])
	binary.LittleEndian.PutUint16(out[4:], weightsVersion)
	binary.LittleEndian.PutUint32(out[6:], uint32(nchunks))
	chunks := make([]chunk, 0, nchunks)
	off, doff := weightsHeaderSize, dataOff
	for _, l := range m.Layers {
		for i, t := range w[l.Name] {
			c := chunk{entry: off, data: doff, end: doff + payloadSize(t.Elems(), bits), floats: t.Data(), bits: bits}
			binary.LittleEndian.PutUint16(out[off:], uint16(len(l.Name)))
			off += 2 + copy(out[off+2:], l.Name)
			binary.LittleEndian.PutUint16(out[off:], uint16(i))
			off += 2
			if bits > 0 {
				out[off] = byte(bits)
				c.affine, off = off+1, off+affineSize
			}
			c.crc = putShape(out, off, t.Shape())
			off, doff = c.crc+4, c.end
			chunks = append(chunks, c)
		}
	}
	eachChunk(nchunks, func(i int) {
		c := chunks[i]
		var sum uint32
		if c.bits == 0 {
			_, sum = putFloatsSum(out, c.data, c.floats, crc32.ChecksumIEEE(out[c.entry:c.crc]))
		} else {
			mn, scale := quantize(out[c.data:c.end], c.floats, c.bits)
			binary.LittleEndian.PutUint32(out[c.affine:], math.Float32bits(mn))
			binary.LittleEndian.PutUint32(out[c.affine+4:], math.Float32bits(scale))
			sum = crc32.Update(crc32.ChecksumIEEE(out[c.entry:c.crc]), crc32.IEEETable, out[c.data:c.end])
		}
		binary.LittleEndian.PutUint32(out[c.crc:], sum)
	})
	return out, nil
}

// DecodeWeights parses a weights container of either kind, checks that
// its length is exactly what its index describes, and verifies every
// chunk's checksum. The result is validated against the model's weight
// specs. Arbitrary (corrupt or hostile) input errors cleanly: it never
// panics and never allocates more than a small multiple of len(data).
//
// The returned tensors are read-only. A quantized container decodes to
// dequantized float32s of their own. A float32 one, where the host
// allows it, decodes to views of data rather than copies: on a
// little-endian host, when the data section lies on a 4-byte boundary —
// as it does in a slice EncodeWeights returned — no payload is copied,
// and the weights are valid for as long as data is kept and left
// unmodified. Otherwise (big-endian host, or a container re-sliced to a
// misaligned address) every payload is decoded into memory of its own.
func DecodeWeights(m *nn.Model, data []byte) (nn.Weights, error) {
	c := cursor{data: data}
	magic, ok := c.bytes(4)
	quantized := ok && [4]byte(magic) == quantizedMagic
	if !ok || [4]byte(magic) != weightsMagic && !quantized {
		return nil, fmt.Errorf("modelfmt: bad weights magic")
	}
	if ver, ok := c.u16(); !ok || ver != weightsVersion {
		return nil, fmt.Errorf("modelfmt: unsupported weights version %d", ver)
	}
	n, ok := c.u32()
	if !ok {
		return nil, fmt.Errorf("modelfmt: truncated header")
	}
	minEntry := minEntrySize
	if quantized {
		minEntry += affineSize
	}
	if int64(n) > int64(c.remaining()/minEntry) {
		return nil, fmt.Errorf("modelfmt: an index of %d chunks cannot fit in %d bytes", n, c.remaining())
	}
	chunks := make([]chunk, n)
	var payload int64
	for i := range chunks {
		ch := &chunks[i]
		ch.entry = c.off
		nameLen, ok := c.u16()
		if ok {
			ch.name, ok = c.bytes(int(nameLen))
		}
		if ok {
			ch.idx, ok = c.u16()
		}
		if ok && quantized {
			var affine []byte
			ch.affine = c.off + 1
			affine, ok = c.bytes(affineSize)
			if ok {
				ch.bits = int(affine[0])
			}
		}
		if !ok {
			return nil, fmt.Errorf("modelfmt: chunk %d: truncated entry", i)
		}
		if quantized && ch.bits != 8 && ch.bits != 4 {
			return nil, fmt.Errorf("modelfmt: chunk %d: unsupported quantization width %d", i, ch.bits)
		}
		var elems int
		var err error
		if ch.shape, elems, err = c.shape(maxChunkDim); err != nil {
			return nil, fmt.Errorf("modelfmt: chunk %d: %w", i, err)
		}
		ch.crc = c.off
		if ch.want, ok = c.u32(); !ok {
			return nil, fmt.Errorf("modelfmt: chunk %d: truncated checksum", i)
		}
		size := payloadSize(elems, ch.bits)
		ch.data, ch.end = int(payload), int(payload)+size // from the data section's start, not yet known
		payload += int64(size)
	}
	if payload != int64(c.remaining()) {
		return nil, fmt.Errorf("modelfmt: index describes %d bytes of data, container holds %d", payload, c.remaining())
	}
	index, data := data[:c.off], data[c.off:]
	eachChunk(len(chunks), func(i int) {
		ch := &chunks[i]
		raw := data[ch.data:ch.end]
		sum := crc32.Update(crc32.ChecksumIEEE(index[ch.entry:ch.crc]), crc32.IEEETable, raw)
		if ch.bad = sum != ch.want; ch.bad {
			return
		}
		if ch.bits > 0 {
			mn := math.Float32frombits(binary.LittleEndian.Uint32(index[ch.affine:]))
			scale := math.Float32frombits(binary.LittleEndian.Uint32(index[ch.affine+4:]))
			ch.floats = dequantize(raw, tensor.Shape(ch.shape).Elems(), ch.bits, mn, scale)
		} else if ch.floats = floatView(raw); ch.floats == nil {
			ch.floats = getFloats(raw)
		}
	})

	w := make(nn.Weights)
	for i, ch := range chunks {
		if ch.bad {
			return nil, fmt.Errorf("modelfmt: chunk %d: checksum mismatch for %q (corrupt weights)", i, ch.name)
		}
		name := string(ch.name)
		if int(ch.idx) != len(w[name]) {
			return nil, fmt.Errorf("modelfmt: chunk %d for %q out of order (index %d, have %d)", i, name, ch.idx, len(w[name]))
		}
		w[name] = append(w[name], tensor.FromSlice(ch.floats, ch.shape...))
	}
	if err := nn.CheckWeights(m, w); err != nil {
		return nil, fmt.Errorf("modelfmt: decoded weights invalid: %w", err)
	}
	return w, nil
}

// SplitWeights encodes per-partition float32 weight containers for the
// layer ranges implied by bounds: partition p covers layers [bounds[p],
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
		blob, err := EncodeWeights(part, sub, 0)
		if err != nil {
			return nil, fmt.Errorf("modelfmt: partition %d: %w", p, err)
		}
		blobs = append(blobs, blob)
	}
	return blobs, nil
}
