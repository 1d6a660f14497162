package modelfmt

import (
	"bytes"
	"runtime"
	"testing"

	"ampsinf/internal/nn"
	"ampsinf/internal/tensor"
)

// FuzzDecodeTensor asserts the decoder's safety contract: arbitrary
// bytes must error cleanly — never panic, never allocate beyond the
// decode limits — and anything that does decode must re-encode to the
// identical bytes (the wire format is canonical).
//
// Seed corpus: testdata/fuzz/FuzzDecodeTensor (valid encodings plus
// historical near-miss shapes: truncations, dimension overflows, CRC
// damage).
func FuzzDecodeTensor(f *testing.F) {
	// Valid encodings of representative tensors.
	seeds := []*tensor.Tensor{
		tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3),
		tensor.FromSlice([]float32{-1.5}, 1),
		tensor.FromSlice(make([]float32, 24), 2, 3, 4, 1),
	}
	for _, t := range seeds {
		f.Add(EncodeTensor(t))
	}
	// Adversarial shapes the decoder historically mishandled or must
	// keep rejecting: overflowing dimension products, zero dims, giant
	// ranks, truncated payloads, flipped CRCs.
	valid := EncodeTensor(seeds[0])
	truncated := append([]byte(nil), valid[:len(valid)-5]...)
	f.Add(truncated)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0xFF
	f.Add(badCRC)
	f.Add([]byte("AMPT"))
	f.Add([]byte{'A', 'M', 'P', 'T', 0xFF, 0xFF, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeTensor(data)
		if err != nil {
			return
		}
		if dec == nil {
			t.Fatal("nil tensor with nil error")
		}
		if n := len(dec.Data()); n > maxDecodeElems {
			t.Fatalf("decoded %d elements, over the %d limit", n, maxDecodeElems)
		}
		if got := dec.Shape().Elems(); got != len(dec.Data()) {
			t.Fatalf("shape %v claims %d elems but data holds %d", dec.Shape(), got, len(dec.Data()))
		}
		// The format is canonical: a successful decode must re-encode to
		// the exact input bytes.
		if re := EncodeTensor(dec); !bytes.Equal(re, data) {
			t.Fatalf("re-encode of %v is not canonical:\n in %x\nout %x", dec.Shape(), data, re)
		}
	})
}

// FuzzDecodeWeights asserts the same contract for the weights container
// of either kind, float32 or quantized: arbitrary bytes never panic and
// never make the decoder allocate more than a small multiple of the
// input, whatever element counts the chunks claim.
//
// Seed corpus: testdata/fuzz/FuzzDecodeWeights, written by hand for
// container version 2: an index entry whose 2^21·2^21·2^21 shape wrapped
// the element product negative and (in version 1) crashed make(); an
// index describing four floats over a data section of three; nchunks =
// 2^32-1 over a fifteen-byte body; a version 1 container; the 42-byte
// quantized container, shape 2^24·2^24·2^15 under a valid checksum, that
// crashed the quantizer's own decoder the same way; and a quantized entry
// of 5-bit codes. The seeds below add valid 8- and 4-bit containers —
// smallModel's dense bias has an odd element count, so at 4 bits its
// last byte holds one code.
func FuzzDecodeWeights(f *testing.F) {
	m := smallModel()
	for _, bits := range []int{0, 8, 4} {
		valid, err := EncodeWeights(m, nn.InitWeights(m, 1), bits)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(append([]byte(nil), valid[:len(valid)-5]...))
		badCRC := append([]byte(nil), valid...)
		badCRC[len(badCRC)-1] ^= 0xFF
		f.Add(badCRC)
	}
	f.Add([]byte("AMPW"))
	f.Add([]byte("AMPQ"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The slack covers what does not scale with the input: the map,
		// error strings, CheckWeights' spec tables.
		budget := 64*uint64(len(data)) + 1<<20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w, err := DecodeWeights(m, data)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if err := nn.CheckWeights(m, w); err != nil {
			t.Fatalf("decoded weights do not fit the model: %v", err)
		}
	})
}
