package modelfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Both codecs are single-pass. Encoders compute the exact output size
// first, allocate once and write every field, payload and checksum in
// place; decoders walk the input slice with a cursor, checksum
// data[start:end] where it lies, and allocate only what the result keeps
// (float payloads, shapes, names).

// Decode limits: a tensor larger than maxDecodeElems elements (1 GiB
// of float32) or deeper than maxDecodeRank cannot come from this
// system and is rejected before any allocation is sized from it —
// hostile dimension lists must not overflow the element product or
// drive a huge make().
const (
	maxDecodeElems = 1 << 28
	maxDecodeRank  = 16
)

// shapeSize is the encoded size of a rank field plus that many dims.
func shapeSize(rank int) int { return 2 + 4*rank }

// putShape writes rank and dims at b[off:] and returns the new offset.
func putShape(b []byte, off int, shape []int) int {
	binary.LittleEndian.PutUint16(b[off:], uint16(len(shape)))
	off += 2
	for _, d := range shape {
		binary.LittleEndian.PutUint32(b[off:], uint32(d))
		off += 4
	}
	return off
}

// putFloats writes the bit patterns of data at b[off:] and returns the
// new offset. This path moves whole models: eight elements a step at
// constant offsets into fixed-length windows, so the compiler drops every
// bounds check and the loop runs at copy speed.
func putFloats(b []byte, off int, data []float32) int {
	end := off + 4*len(data)
	dst := b[off:end]
	for len(data) >= 8 && len(dst) >= 32 {
		d, s := dst[:32:32], data[:8:8]
		binary.LittleEndian.PutUint32(d[0:], math.Float32bits(s[0]))
		binary.LittleEndian.PutUint32(d[4:], math.Float32bits(s[1]))
		binary.LittleEndian.PutUint32(d[8:], math.Float32bits(s[2]))
		binary.LittleEndian.PutUint32(d[12:], math.Float32bits(s[3]))
		binary.LittleEndian.PutUint32(d[16:], math.Float32bits(s[4]))
		binary.LittleEndian.PutUint32(d[20:], math.Float32bits(s[5]))
		binary.LittleEndian.PutUint32(d[24:], math.Float32bits(s[6]))
		binary.LittleEndian.PutUint32(d[28:], math.Float32bits(s[7]))
		dst, data = dst[32:], data[8:]
	}
	for i, v := range data {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	return end
}

// getFloats decodes len(src)/4 float32 bit patterns, unrolled like
// putFloats.
func getFloats(src []byte) []float32 {
	out := make([]float32, len(src)/4)
	dst := out
	for len(dst) >= 8 && len(src) >= 32 {
		s, d := src[:32:32], dst[:8:8]
		d[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		d[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		d[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		d[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
		d[4] = math.Float32frombits(binary.LittleEndian.Uint32(s[16:]))
		d[5] = math.Float32frombits(binary.LittleEndian.Uint32(s[20:]))
		d[6] = math.Float32frombits(binary.LittleEndian.Uint32(s[24:]))
		d[7] = math.Float32frombits(binary.LittleEndian.Uint32(s[28:]))
		src, dst = src[32:], dst[8:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return out
}

// cursor reads little-endian fields from a byte slice without copying.
// Every read reports false, and consumes nothing, when too few bytes
// remain.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) bytes(n int) ([]byte, bool) {
	if n > c.remaining() {
		return nil, false
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, true
}

func (c *cursor) u16() (uint16, bool) {
	b, ok := c.bytes(2)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint16(b), true
}

func (c *cursor) u32() (uint32, bool) {
	b, ok := c.bytes(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

// shape reads a rank field and its dims under the decode limits: rank at
// most maxDecodeRank, every dim in [1, maxDim], and the running element
// product checked against maxDecodeElems at every step. Each factor is
// ≤ 2^28 and the product is checked before the next one is applied, so
// it can reach at most 2^56 — far from int64 overflow.
func (c *cursor) shape(maxDim uint32) (shape []int, elems int, err error) {
	rank, ok := c.u16()
	if !ok {
		return nil, 0, fmt.Errorf("truncated rank")
	}
	if rank > maxDecodeRank {
		return nil, 0, fmt.Errorf("implausible rank %d", rank)
	}
	shape = make([]int, rank)
	elems = 1
	for i := range shape {
		d, ok := c.u32()
		if !ok {
			return nil, 0, fmt.Errorf("truncated shape")
		}
		if d == 0 || d > maxDim {
			return nil, 0, fmt.Errorf("implausible dimension %d", d)
		}
		shape[i] = int(d)
		elems *= int(d)
		if elems > maxDecodeElems {
			return nil, 0, fmt.Errorf("shape %v exceeds the %d-element decode limit", shape[:i+1], maxDecodeElems)
		}
	}
	return shape, elems, nil
}
