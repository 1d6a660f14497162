package main

// Naive float64 references for the kernel microbenchmarks: direct loops
// in NHWC with "same" padding and stride 1, written from the operator
// definitions rather than from internal/tensor, so a kernel rewrite is
// checked against arithmetic it does not share.

// naiveConv convolves in [H,W,Cin] with kernel [KH,KW,Cin,Cout] into
// [H,W,Cout]. With depthwise set the kernel is [KH,KW,Cin,1] and every
// channel keeps to itself (Cout = Cin).
func naiveConv(in []float32, h, w, cin int, k []float32, kh, kw, cout int, depthwise bool) []float64 {
	out := make([]float64, h*w*cout)
	ph, pw := (kh-1)/2, (kw-1)/2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			o := out[(y*w+x)*cout : (y*w+x+1)*cout]
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					iy, ix := y+ky-ph, x+kx-pw
					if iy < 0 || iy >= h || ix < 0 || ix >= w {
						continue
					}
					for ci := 0; ci < cin; ci++ {
						v := float64(in[(iy*w+ix)*cin+ci])
						if depthwise {
							o[ci] += v * float64(k[(ky*kw+kx)*cin+ci])
							continue
						}
						kr := k[((ky*kw+kx)*cin+ci)*cout:]
						for co := range o {
							o[co] += v * float64(kr[co])
						}
					}
				}
			}
		}
	}
	return out
}

// naiveMatMul multiplies a [M,K] by b [K,N].
func naiveMatMul(a, b []float32, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for kk := 0; kk < k; kk++ {
				out[i*n+j] += float64(a[i*k+kk]) * float64(b[kk*n+j])
			}
		}
	}
	return out
}
