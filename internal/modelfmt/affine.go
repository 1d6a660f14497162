package modelfmt

import (
	"fmt"
	"math"
)

// Affine quantization, the paper's future-work answer (Sec. 5.4, citing
// Han et al.'s deep compression) to models whose single layers approach
// the platform's package-size limit: each parameter tensor ships as
// unsigned bits-bit codes under value ≈ min + scale·code, shrinking a
// partition's package 4–8×. The codes are a weights container's payload
// (kind "AMPQ", see weights.go); DecodeWeights dequantizes on load and
// the serving path is unchanged.

// CheckQuantBits accepts the payload widths a weights container can
// carry: 0 (float32), 8 or 4 bits.
func CheckQuantBits(bits int) error {
	if bits != 0 && bits != 8 && bits != 4 {
		return fmt.Errorf("modelfmt: unsupported quantization width %d (want 0, 8 or 4)", bits)
	}
	return nil
}

// CompressionScale is the deployment-size factor of a bits-bit package
// relative to float32, with ~2% container overhead (1 for float32): the
// optimizer's constraint (4) accounting of a quantized deployment.
func CompressionScale(bits int) float64 {
	if bits == 0 {
		return 1
	}
	return float64(bits)/32 + 0.02
}

// payloadSize is the data-section bytes of a tensor of elems values:
// float32s, or bits-bit codes packed.
func payloadSize(elems, bits int) int {
	if bits == 0 {
		return 4 * elems
	}
	return (elems*bits + 7) / 8
}

// quantize writes the bits-bit codes of src into dst, which must be
// zeroed — code i at bit i·bits, so one a byte at 8 bits and two a byte,
// low nibble first, at 4 — and returns the affine map they decode under.
// The error is at most scale/2 per element.
func quantize(dst []byte, src []float32, bits int) (mn, scale float32) {
	mn, mx := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range src {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if len(src) == 0 {
		mn, mx = 0, 0
	}
	top := 1<<bits - 1
	scale = (mx - mn) / float32(top)
	if scale == 0 {
		scale = 1 // constant tensor; all codes zero
	}
	for i, v := range src {
		dst[i*bits/8] |= byte(clampCode(v, mn, scale, top)) << (i * bits % 8)
	}
	return mn, scale
}

func clampCode(v, mn, scale float32, maxCode int) int {
	c := int(math.Round(float64((v - mn) / scale)))
	if c < 0 {
		c = 0
	}
	if c > maxCode {
		c = maxCode
	}
	return c
}

// dequantize decodes n bits-bit codes from src into new float32s.
func dequantize(src []byte, n, bits int, mn, scale float32) []float32 {
	out := make([]float32, n)
	mask := byte(1<<bits - 1)
	for i := range out {
		code := (src[i*bits/8] >> (i * bits % 8)) & mask
		out[i] = mn + scale*float32(code)
	}
	return out
}
