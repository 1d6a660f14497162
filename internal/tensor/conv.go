package tensor

import (
	"fmt"
	"sync"
)

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
// worker in (ky, kx, ci) order. An input pixel's nonzero activations
// (about half of all post-ReLU inputs are zero) are compacted into a term
// list, and convList adds their kernel rows into the output pixel. A 1×1
// kernel reads each input pixel once and compacts it where it reads it;
// a larger one compacts each pixel a worker reads once into a band
// (below), and every tap that reads the pixel walks that list; there, up
// to 16 pixels of a row take each tap in turn, so the tap's kernel is
// reread from cache.
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
	c := conv{in.data, kernel.data, biasData(bias, cout), New(n, oh, ow, cout),
		h, w, cin, oh, ow, cout, kh, kw, stride, padH, padW}
	run := c.banded
	if kh*kw == 1 {
		run = c.pointwise
	}
	parallelFor(n*oh*ow, kh*kw*cin*cout, run)
	return c.out
}

// conv is one Conv2D call: its operands and geometry.
type conv struct {
	in, kernel, bias []float32
	out              *Tensor

	h, w, cin, oh, ow, cout, kh, kw, stride, padH, padW int
}

// pointwise computes output pixels [lo, hi) of a 1×1 convolution.
func (c *conv) pointwise(lo, hi int) {
	list := termLists.Get().(*[]term)
	defer termLists.Put(list)
	if len(*list) < c.cin {
		*list = make([]term, c.cin)
	}
	for p := lo; p < hi; {
		row := p / c.ow // b*oh + oy
		inBase := row / c.oh * c.h * c.w * c.cin
		iy := row%c.oh*c.stride - c.padH
		for end := min(hi, (row+1)*c.ow); p < end; p++ {
			dst := c.out.data[p*c.cout : (p+1)*c.cout]
			if ix := (p-row*c.ow)*c.stride - c.padW; iy >= 0 && iy < c.h && ix >= 0 && ix < c.w {
				src := c.in[inBase+(iy*c.w+ix)*c.cin : inBase+(iy*c.w+ix+1)*c.cin]
				convList((*list)[:compact(src, c.cout, *list)], c.kernel, dst)
			}
			addBias(dst, c.bias)
		}
	}
}

// banded computes output pixels [lo, hi) of a convolution whose kernel
// covers more than one pixel. Per output row it first compacts the
// input columns the row's pixels read, in each of its kh input rows, as
// far as the band does not hold them yet; then the taps walk the band.
func (c *conv) banded(lo, hi int) {
	b := bands.Get().(*band)
	defer bands.Put(b)
	b.reset(c.kh, c.w, c.cin)
	for p := lo; p < hi; {
		row := p / c.ow // img*oh + oy
		img := row / c.oh
		iy0 := row%c.oh*c.stride - c.padH
		rowEnd := min(hi, (row+1)*c.ow)
		colLo := max(0, (p-row*c.ow)*c.stride-c.padW)
		colHi := min(c.w, (rowEnd-1-row*c.ow)*c.stride-c.padW+c.kw)
		for iy := max(0, iy0); iy < min(c.h, iy0+c.kh); iy++ {
			key := img*c.h + iy
			b.fill(key, c.in[key*c.w*c.cin:(key+1)*c.w*c.cin], colLo, colHi, c.cout)
		}
		for p < rowEnd {
			end := min(rowEnd, p+16)
			for ky := 0; ky < c.kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= c.h {
					continue
				}
				for kx := 0; kx < c.kw; kx++ {
					tap := c.kernel[(ky*c.kw+kx)*c.cin*c.cout : (ky*c.kw+kx+1)*c.cin*c.cout]
					for q := p; q < end; q++ {
						ix := (q-row*c.ow)*c.stride - c.padW + kx
						if ix < 0 || ix >= c.w {
							continue
						}
						convList(b.list(img*c.h+iy, ix), tap, c.out.data[q*c.cout:(q+1)*c.cout])
					}
				}
			}
			addBias(c.out.data[p*c.cout:end*c.cout], c.bias)
			p = end
		}
	}
}

// band holds the term lists of the input pixels one worker of a banded
// convolution reads, compacted once each: kh input rows of w lists of up
// to cin terms. Input row iy of image img has the key img·h + iy and
// lives in slot key mod kh. An output row reads kh consecutive keys,
// which take distinct slots, and a row keeps its slot while the output
// rows that read it pass.
type band struct {
	terms  []term
	n      []int // terms in each list
	rows   []bandRow
	w, cin int
}

// bandRow is the input row a band slot holds, by key, and the columns
// [lo, hi) of it that are compacted.
type bandRow struct{ key, lo, hi int }

// bands recycles the bands of Conv2D workers.
var bands = sync.Pool{New: func() any { return new(band) }}

// reset sizes b for kh rows of w pixels of cin channels, holding none.
func (b *band) reset(kh, w, cin int) {
	b.terms = grow(b.terms, kh*w*cin)
	b.n = grow(b.n, kh*w)
	b.rows = grow(b.rows, kh)
	for i := range b.rows {
		b.rows[i] = bandRow{key: -1}
	}
	b.w, b.cin = w, cin
}

// grow returns s resliced to n elements, reallocated if it is shorter.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill makes b hold columns [lo, hi) of input row key, whose pixels are
// src, compacting the columns its slot lacks with offsets stride apart.
// The slot's columns stay one interval: a gap between it and [lo, hi) is
// compacted too.
func (b *band) fill(key int, src []float32, lo, hi, stride int) {
	if lo >= hi {
		return
	}
	slot := key % len(b.rows)
	r := &b.rows[slot]
	if r.key != key {
		*r = bandRow{key, lo, lo}
	}
	for ix := lo; ix < r.lo; ix++ {
		b.compact(slot, ix, src, stride)
	}
	for ix := r.hi; ix < hi; ix++ {
		b.compact(slot, ix, src, stride)
	}
	r.lo, r.hi = min(r.lo, lo), max(r.hi, hi)
}

func (b *band) compact(slot, ix int, src []float32, stride int) {
	at := slot*b.w + ix
	b.n[at] = compact(src[ix*b.cin:(ix+1)*b.cin], stride, b.terms[at*b.cin:(at+1)*b.cin])
}

// list is the term list of pixel ix of input row key.
func (b *band) list(key, ix int) []term {
	at := key%len(b.rows)*b.w + ix
	return b.terms[at*b.cin : at*b.cin+b.n[at]]
}

// DepthwiseConv2D convolves each input channel with its own filter.
//
//	in:     [N, H, W, C]
//	kernel: [KH, KW, C, 1]
//	bias:   [C] or nil
//
// Each output pixel is one depthwiseTaps call over its in-bounds taps in
// (ky, kx) order, which holds a tile of the pixel in registers across
// all of them. A window wholly inside the image takes every tap, at
// offsets from its corner pixel that every such window shares.
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
	inner := make([]tap, 0, kh*kw)
	for ky := 0; ky < kh; ky++ {
		for kx := 0; kx < kw; kx++ {
			inner = append(inner, tap{int32((ky*w + kx) * c), int32((ky*kw + kx) * c)})
		}
	}
	parallelFor(n*oh*ow, kh*kw*c, func(lo, hi int) {
		edge := make([]tap, 0, kh*kw)
		for p := lo; p < hi; {
			row := p / ow // b*oh + oy
			img := in.data[row/oh*h*w*c : (row/oh+1)*h*w*c]
			iy0 := row%oh*stride - padH
			for end := min(hi, (row+1)*ow); p < end; p++ {
				dst := out.data[p*c : (p+1)*c]
				ix0 := (p-row*ow)*stride - padW
				if iy0 >= 0 && iy0+kh <= h && ix0 >= 0 && ix0+kw <= w {
					depthwiseTaps(inner, img[(iy0*w+ix0)*c:], kd, dst)
				} else {
					taps := edge[:0]
					for ky := max(0, -iy0); ky < min(kh, h-iy0); ky++ {
						for kx := max(0, -ix0); kx < min(kw, w-ix0); kx++ {
							taps = append(taps, tap{int32(((iy0+ky)*w + ix0 + kx) * c), int32((ky*kw + kx) * c)})
						}
					}
					depthwiseTaps(taps, img, kd, dst)
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
