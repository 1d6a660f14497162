package tensor

import "fmt"

// Padding selects the spatial padding policy for convolution and pooling.
type Padding int

const (
	// Same pads so that output spatial size is ceil(in/stride).
	Same Padding = iota
	// Valid applies no padding; output size is floor((in-k)/stride)+1.
	Valid
)

func (p Padding) String() string {
	if p == Same {
		return "same"
	}
	return "valid"
}

// convGeometry computes output size and leading pad for one spatial axis.
func convGeometry(in, k, stride int, pad Padding) (out, padLo int) {
	switch pad {
	case Same:
		out = (in + stride - 1) / stride
		total := (out-1)*stride + k - in
		if total < 0 {
			total = 0
		}
		return out, total / 2
	case Valid:
		if in < k {
			return 0, 0
		}
		return (in-k)/stride + 1, 0
	}
	panic("tensor: unknown padding")
}

// ConvOutShape returns the NHWC output shape of a convolution over in
// with a kernel of spatial size kh×kw producing outC channels.
func ConvOutShape(in Shape, kh, kw, stride int, pad Padding, outC int) Shape {
	oh, _ := convGeometry(in[1], kh, stride, pad)
	ow, _ := convGeometry(in[2], kw, stride, pad)
	return Shape{in[0], oh, ow, outC}
}

// Conv2D performs a standard 2-D convolution.
//
//	in:     [N, H, W, Cin]   (NHWC)
//	kernel: [KH, KW, Cin, Cout]
//	bias:   [Cout] or nil
//
// Output pixels are split across workers, each pixel computed by one
// worker in (ky, kx, ci) order. Per tap, the input pixel's nonzero
// activations (about half of all post-ReLU inputs are zero) are compacted
// into a term list, and convList adds their kernel rows into the output
// pixel. Up to 16 pixels of a row take each tap in turn, so the tap's
// kernel is reread from cache.
func Conv2D(in, kernel, bias *Tensor, stride int, pad Padding) *Tensor {
	if in.Rank() != 4 || kernel.Rank() != 4 {
		panic(fmt.Sprintf("tensor: conv2d wants rank-4 input/kernel, got %v / %v", in.shape, kernel.shape))
	}
	n, h, w, cin := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kh, kw, kcin, cout := kernel.shape[0], kernel.shape[1], kernel.shape[2], kernel.shape[3]
	if kcin != cin {
		panic(fmt.Sprintf("tensor: conv2d channel mismatch input %d kernel %d", cin, kcin))
	}
	oh, padH := convGeometry(h, kh, stride, pad)
	ow, padW := convGeometry(w, kw, stride, pad)
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("tensor: conv2d produces empty output for input %v kernel %v", in.shape, kernel.shape))
	}
	bd := biasData(bias, cout)
	out := New(n, oh, ow, cout)

	parallelFor(n*oh*ow, kh*kw*cin*cout, func(lo, hi int) {
		list := termLists.Get().(*[]term)
		defer termLists.Put(list)
		if len(*list) < cin {
			*list = make([]term, cin)
		}
		for p := lo; p < hi; {
			row := p / ow // b*oh + oy
			inBase := row / oh * h * w * cin
			iy0 := row%oh*stride - padH
			end := min(hi, (row+1)*ow, p+16)
			for ky := 0; ky < kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					tap := kernel.data[(ky*kw+kx)*cin*cout : (ky*kw+kx+1)*cin*cout]
					for q := p; q < end; q++ {
						ix := (q-row*ow)*stride - padW + kx
						if ix < 0 || ix >= w {
							continue
						}
						src := in.data[inBase+(iy*w+ix)*cin : inBase+(iy*w+ix+1)*cin]
						convList((*list)[:compact(src, cout, *list)], tap, out.data[q*cout:(q+1)*cout])
					}
				}
			}
			addBias(out.data[p*cout:end*cout], bd)
			p = end
		}
	})
	return out
}

// DepthwiseConv2D convolves each input channel with its own filter.
//
//	in:     [N, H, W, C]
//	kernel: [KH, KW, C, 1]
//	bias:   [C] or nil
func DepthwiseConv2D(in, kernel, bias *Tensor, stride int, pad Padding) *Tensor {
	if in.Rank() != 4 || kernel.Rank() != 4 {
		panic(fmt.Sprintf("tensor: depthwise wants rank-4 input/kernel, got %v / %v", in.shape, kernel.shape))
	}
	n, h, w, c := in.shape[0], in.shape[1], in.shape[2], in.shape[3]
	kh, kw, kc, mult := kernel.shape[0], kernel.shape[1], kernel.shape[2], kernel.shape[3]
	if kc != c || mult != 1 {
		panic(fmt.Sprintf("tensor: depthwise kernel %v does not match %d channels", kernel.shape, c))
	}
	oh, padH := convGeometry(h, kh, stride, pad)
	ow, padW := convGeometry(w, kw, stride, pad)
	bd := biasData(bias, c)
	out := New(n, oh, ow, c)
	kd := kernel.data
	parallelFor(n*oh*ow, kh*kw*c, func(lo, hi int) {
		for p := lo; p < hi; {
			row := p / ow // b*oh + oy
			inBase := row / oh * h * w * c
			iy0 := row%oh*stride - padH
			for end := min(hi, (row+1)*ow); p < end; p++ {
				dst := out.data[p*c : (p+1)*c]
				ix0 := (p-row*ow)*stride - padW
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
						mulAdd(src, kd[(ky*kw+kx)*c:(ky*kw+kx+1)*c], dst)
					}
				}
				addBias(dst, bd)
			}
		}
	})
	return out
}

// SeparableConv2D is a depthwise convolution followed by a 1×1 pointwise
// convolution (Xception's building block).
//
//	depthKernel: [KH, KW, Cin, 1]
//	pointKernel: [1, 1, Cin, Cout]
func SeparableConv2D(in, depthKernel, pointKernel, bias *Tensor, stride int, pad Padding) *Tensor {
	mid := DepthwiseConv2D(in, depthKernel, nil, stride, pad)
	return Conv2D(mid, pointKernel, bias, 1, Same)
}
