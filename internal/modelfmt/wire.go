package modelfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"
)

// Both codecs are single-pass. Encoders compute the exact output size
// first, allocate the output once and write every field, payload and
// checksum in place; decoders walk the input slice with a cursor, checksum the bytes
// where they lie, and allocate only what the result keeps: shapes, names
// and — for a tensor, a quantized weights container, or a float32 one
// that cannot be viewed in place (see DecodeWeights) — float payloads.

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

// hostLittleEndian is whether a float32's bytes in memory are already
// its wire encoding, in which case payloads move by copy — or, for
// DecodeWeights, do not move at all. Other hosts convert per element.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// byteView is f's memory as bytes.
func byteView(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// floatView is b's memory as float32s — b itself, nothing copied — or
// nil where that is not its decoding: on a big-endian host, or when b
// does not start on a 4-byte boundary.
func floatView(b []byte) []float32 {
	if !hostLittleEndian || uintptr(unsafe.Pointer(unsafe.SliceData(b)))&3 != 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// putFloats writes the bit patterns of data at b[off:] and returns the
// new offset.
func putFloats(b []byte, off int, data []float32) int {
	end := off + 4*len(data)
	if hostLittleEndian {
		copy(b[off:end], byteView(data))
		return end
	}
	for i, v := range data {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(v))
	}
	return end
}

// putFloatsSum is putFloats that also extends the CRC-32 sum over the
// bytes it writes — a block at a time, small enough that the checksum
// reads what the copy has just left in cache instead of fetching the
// payload from memory a second time.
func putFloatsSum(b []byte, off int, data []float32, sum uint32) (int, uint32) {
	const block = 32 << 10 // elements
	for len(data) > 0 {
		n := min(block, len(data))
		end := putFloats(b, off, data[:n])
		sum = crc32.Update(sum, crc32.IEEETable, b[off:end])
		off, data = end, data[n:]
	}
	return off, sum
}

// getFloats decodes len(src)/4 float32 bit patterns into a new slice.
func getFloats(src []byte) []float32 {
	out := make([]float32, len(src)/4)
	if hostLittleEndian {
		copy(byteView(out), src)
		return out
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
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
