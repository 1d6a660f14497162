package modelfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ampsinf/internal/tensor"
)

// Tensor wire format (little-endian), used for activations staged through
// S3 between partition lambdas:
//
//	magic [4]byte "AMPT"
//	rank  uint16, dims []uint32
//	data  []float32 (bits)
//	crc   uint32 over everything after the magic

var tensorMagic = [4]byte{'A', 'M', 'P', 'T'}

// EncodeTensor serializes a tensor for transfer.
func EncodeTensor(t *tensor.Tensor) []byte {
	shape := t.Shape()
	data := t.Data()
	out := make([]byte, 4+shapeSize(len(shape))+4*len(data)+4)
	copy(out, tensorMagic[:])
	off := putShape(out, 4, shape)
	off, sum := putFloatsSum(out, off, data, crc32.ChecksumIEEE(out[4:off]))
	binary.LittleEndian.PutUint32(out[off:], sum)
	return out
}

// DecodeTensor parses a tensor, verifying the checksum. Arbitrary
// (corrupt or hostile) input errors cleanly: it never panics and never
// allocates more than a small multiple of len(data).
func DecodeTensor(data []byte) (*tensor.Tensor, error) {
	if len(data) < 10 || [4]byte(data[:4]) != tensorMagic {
		return nil, fmt.Errorf("modelfmt: bad tensor magic")
	}
	body := data[4 : len(data)-4]
	c := cursor{data: body}
	shape, elems, err := c.shape(maxDecodeElems)
	if err != nil {
		return nil, fmt.Errorf("modelfmt: tensor: %w", err)
	}
	if c.remaining() != 4*elems {
		return nil, fmt.Errorf("modelfmt: tensor payload is %d bytes, want %d", len(body), c.off+4*elems)
	}
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != crc32.ChecksumIEEE(body) {
		return nil, fmt.Errorf("modelfmt: tensor checksum mismatch (corrupt transfer)")
	}
	return tensor.FromSlice(getFloats(body[c.off:]), shape...), nil
}
