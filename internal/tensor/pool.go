package tensor

import (
	"fmt"
	"math"
)

// MaxPool2D applies spatial max pooling with a k×k window.
func MaxPool2D(in *Tensor, k, stride int, pad Padding) *Tensor {
	return pool2D(in, k, stride, pad, true)
}

// AvgPool2D applies spatial average pooling with a k×k window. Padding
// cells are excluded from the average (Keras semantics).
func AvgPool2D(in *Tensor, k, stride int, pad Padding) *Tensor {
	return pool2D(in, k, stride, pad, false)
}

// pool2D writes each window's result straight into its output pixel: a
// max starts from -Inf and takes each in-bounds cell through maxInto, an
// average sums them from +0 through axpy(1, ·) — 1·v is exact, so that is
// the plain add — and is scaled by 1/count.
func pool2D(in *Tensor, k, stride int, pad Padding, isMax bool) *Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: pool wants rank-4 NHWC input, got %v", in.shape))
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, padH := convGeometry(h, k, stride, pad)
	ow, padW := convGeometry(w, k, stride, pad)
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("tensor: pool produces empty output for %v window %d", in.shape, k))
	}
	out := New(n, oh, ow, c)
	parallelFor(n*oh, ow*k*k*c, func(lo, hi int) {
		var negInf []float32
		if isMax {
			negInf = make([]float32, c)
			for i := range negInf {
				negInf[i] = float32(math.Inf(-1))
			}
		}
		for row := lo; row < hi; row++ {
			inBase := row / oh * h * w * c
			iy0 := row%oh*stride - padH
			for ox := 0; ox < ow; ox++ {
				dst := out.data[(row*ow+ox)*c : (row*ow+ox+1)*c]
				copy(dst, negInf) // a max starts from -Inf, an average from +0
				count := 0
				ix0 := ox*stride - padW
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ix0 + kx
						if ix < 0 || ix >= w {
							continue
						}
						src := in.data[inBase+(iy*w+ix)*c : inBase+(iy*w+ix+1)*c]
						count++
						if isMax {
							maxInto(src, dst)
						} else {
							axpy(1, src, dst)
						}
					}
				}
				if !isMax && count > 0 {
					scale(1/float32(count), dst)
				}
			}
		}
	})
	return out
}

// GlobalAvgPool2D averages each channel over all spatial positions,
// producing an [N, C] tensor.
func GlobalAvgPool2D(in *Tensor) *Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: global pool wants rank-4 input, got %v", in.shape))
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	out := New(n, c)
	inv := float32(1) / float32(h*w)
	parallelFor(n, h*w*c, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			dst := out.data[b*c : (b+1)*c]
			for p := b * h * w; p < (b+1)*h*w; p++ {
				axpy(1, in.data[p*c:(p+1)*c], dst)
			}
			scale(inv, dst)
		}
	})
	return out
}

// ZeroPad2D pads the spatial dimensions with zeros (top, bottom, left,
// right), as used before strided valid convolutions in ResNet.
func ZeroPad2D(in *Tensor, top, bottom, left, right int) *Tensor {
	if in.Rank() != 4 {
		panic(fmt.Sprintf("tensor: zeropad wants rank-4 input, got %v", in.shape))
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	oh, ow := h+top+bottom, w+left+right
	out := New(n, oh, ow, c)
	parallelFor(n*h, w*c, func(lo, hi int) {
		for row := lo; row < hi; row++ {
			b := row / h
			y := row % h
			srcBase := (b*h + y) * w * c
			dstBase := ((b*oh+y+top)*ow + left) * c
			copy(out.data[dstBase:dstBase+w*c], in.data[srcBase:srcBase+w*c])
		}
	})
	return out
}
