package tensor

// The scalar loop nests of the forward pass's kernels as they were
// before SIMD primitives replaced their innermost loops, kept as the
// reference the production kernels are pinned to bit for bit. The only
// edit is the explicit float32 conversion of each product, which pins
// the round-twice semantics the original loops had on amd64 for targets
// where the compiler would otherwise fuse them into an FMA.

import "math"

func refConv2D(in, kernel, bias *Tensor, stride int, pad Padding) *Tensor {
	n, h, w, cin := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kh, kw, cout := kernel.shape[0], kernel.shape[1], kernel.shape[3]
	oh, padH := convGeometry(h, kh, stride, pad)
	ow, padW := convGeometry(w, kw, stride, pad)
	out := New(n, oh, ow, cout)
	kd := kernel.data
	for row := 0; row < n*oh; row++ {
		b := row / oh
		oy := row % oh
		inBase := b * h * w * cin
		outBase := (b*oh + oy) * ow * cout
		for ox := 0; ox < ow; ox++ {
			dst := out.data[outBase+ox*cout : outBase+(ox+1)*cout]
			iy0 := oy*stride - padH
			ix0 := ox*stride - padW
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= w {
						continue
					}
					src := in.data[inBase+(iy*w+ix)*cin : inBase+(iy*w+ix+1)*cin]
					kBase := ((ky*kw + kx) * cin) * cout
					for ci, sv := range src {
						if sv == 0 {
							continue
						}
						kRow := kd[kBase+ci*cout : kBase+(ci+1)*cout]
						for co := range dst {
							dst[co] += float32(sv * kRow[co])
						}
					}
				}
			}
		}
	}
	if bias != nil {
		return refBiasAdd(out, bias)
	}
	return out
}

func refDepthwiseConv2D(in, kernel, bias *Tensor, stride int, pad Padding) *Tensor {
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kh, kw := kernel.shape[0], kernel.shape[1]
	oh, padH := convGeometry(h, kh, stride, pad)
	ow, padW := convGeometry(w, kw, stride, pad)
	out := New(n, oh, ow, c)
	kd := kernel.data
	for row := 0; row < n*oh; row++ {
		b := row / oh
		oy := row % oh
		inBase := b * h * w * c
		outBase := (b*oh + oy) * ow * c
		for ox := 0; ox < ow; ox++ {
			dst := out.data[outBase+ox*c : outBase+(ox+1)*c]
			iy0 := oy*stride - padH
			ix0 := ox*stride - padW
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= w {
						continue
					}
					src := in.data[inBase+(iy*w+ix)*c : inBase+(iy*w+ix+1)*c]
					kRow := kd[(ky*kw+kx)*c : (ky*kw+kx+1)*c]
					for ci := range dst {
						dst[ci] += float32(src[ci] * kRow[ci])
					}
				}
			}
		}
	}
	if bias != nil {
		return refBiasAdd(out, bias)
	}
	return out
}

func refMatMul(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		dst := out.data[i*n : (i+1)*n]
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j := range dst {
				dst[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

// refBiasAdd adds a per-channel bias to the innermost dimension into a
// fresh tensor.
func refBiasAdd(t, bias *Tensor) *Tensor {
	c := t.shape[len(t.shape)-1]
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = v + bias.data[i%c]
	}
	return out
}

// refBatchNorm is BatchNormTo's loop as it was before scaleShift: the
// parameters folded into a per-channel scale and shift once, then one
// rounded multiply and one rounded add per element.
func refBatchNorm(in, gamma, beta, mean, variance *Tensor, eps float32) *Tensor {
	c := in.shape[len(in.shape)-1]
	scale := make([]float32, c)
	shift := make([]float32, c)
	for i := range scale {
		scale[i] = gamma.data[i] / sqrt32(variance.data[i]+eps)
		shift[i] = beta.data[i] - float32(mean.data[i]*scale[i])
	}
	out := New(in.shape...)
	for i, x := range in.data {
		out.data[i] = float32(x*scale[i%c]) + shift[i%c]
	}
	return out
}

// refPool2D is the pools' scalar loop: a max that takes v only when
// v > acc, starting from -Inf, or a sum from +0 divided by the number of
// in-bounds cells (Keras excludes the padding).
func refPool2D(in *Tensor, k, stride int, pad Padding, isMax bool) *Tensor {
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, padH := convGeometry(h, k, stride, pad)
	ow, padW := convGeometry(w, k, stride, pad)
	out := New(n, oh, ow, c)
	acc := make([]float32, c)
	for b := 0; b < n; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for i := range acc {
					acc[i] = 0
					if isMax {
						acc[i] = float32(math.Inf(-1))
					}
				}
				count := 0
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						iy, ix := oy*stride-padH+ky, ox*stride-padW+kx
						if iy < 0 || iy >= h || ix < 0 || ix >= w {
							continue
						}
						count++
						src := in.data[((b*h+iy)*w+ix)*c : ((b*h+iy)*w+ix+1)*c]
						for ci, v := range src {
							if !isMax {
								acc[ci] += v
							} else if v > acc[ci] {
								acc[ci] = v
							}
						}
					}
				}
				dst := out.data[((b*oh+oy)*ow+ox)*c : ((b*oh+oy)*ow+ox+1)*c]
				for ci := range dst {
					if isMax {
						dst[ci] = acc[ci]
					} else if count > 0 {
						dst[ci] = acc[ci] * (1 / float32(count))
					}
				}
			}
		}
	}
	return out
}

// refGlobalAvgPool sums each channel over the image from +0, in pixel
// order, and multiplies by 1/(h·w).
func refGlobalAvgPool(in *Tensor) *Tensor {
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	out := New(n, c)
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		dst := out.data[b*c : (b+1)*c]
		for p := 0; p < h*w; p++ {
			for ci, v := range in.data[(b*h*w+p)*c : (b*h*w+p+1)*c] {
				dst[ci] += v
			}
		}
		for ci := range dst {
			dst[ci] *= inv
		}
	}
	return out
}

// refAdd is the residual sum, a[i] + b[i], into a fresh tensor.
func refAdd(a, b *Tensor) *Tensor {
	out := New(a.shape...)
	for i, x := range a.data {
		out.data[i] = x + b.data[i]
	}
	return out
}
