package tensor

// The scalar Conv2D / DepthwiseConv2D / MatMul loop nests as they were
// before the axpy/mulAdd primitives replaced their innermost loops, kept
// as the reference the production kernels are pinned to bit for bit. The
// only edit is the explicit float32 conversion of each product, which
// pins the round-twice semantics the original loops had on amd64 for
// targets where the compiler would otherwise fuse them into an FMA.

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
