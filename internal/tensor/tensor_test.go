package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{Shape{1}, 1},
		{Shape{2, 3}, 6},
		{Shape{1, 4, 4, 3}, 48},
	}
	for _, c := range cases {
		if got := c.shape.Elems(); got != c.want {
			t.Errorf("Elems(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	a := Shape{1, 2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone not equal: %v vs %v", a, b)
	}
	b[0] = 9
	if a[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if a.Equal(Shape{1, 2}) {
		t.Fatal("shapes of different rank compared equal")
	}
	if a.Equal(Shape{1, 2, 4}) {
		t.Fatal("different shapes compared equal")
	}
}

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Rank() != 2 || x.Elems() != 6 {
		t.Fatalf("rank/elems = %d/%d, want 2/6", x.Rank(), x.Elems())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := x.At(0, 0, 0); got != 0 {
		t.Fatalf("unrelated element modified: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	x.At(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Set(9, 0)
	if x.At(0, 0) != 9 {
		t.Fatal("reshape does not alias data")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(5, 0)
	if x.At(0) != 1 {
		t.Fatal("clone aliases data")
	}
}

func TestReLU(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2.5}, 3)
	y := ReLUTo(New(x.Shape()...), x)
	want := []float32{0, 0, 2.5}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("ReLU[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestReLU6(t *testing.T) {
	x := FromSlice([]float32{-3, 4, 9}, 3)
	y := ReLU6To(New(x.Shape()...), x)
	want := []float32{0, 4, 6}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Errorf("ReLU6[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(4, 10)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64() * 5)
	}
	y := SoftmaxTo(New(x.Shape()...), x)
	for r := 0; r < 4; r++ {
		var sum float64
		for c := 0; c < 10; c++ {
			v := y.At(r, c)
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", r, sum)
		}
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	y := SoftmaxTo(New(x.Shape()...), x)
	for _, v := range y.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax not stable: %v", y.Data())
		}
	}
	if ArgMax(y) != 1 {
		t.Fatalf("argmax = %d, want 1", ArgMax(y))
	}
}

func TestAdd(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{10, 20}, 2)
	s := Add(a, b)
	if s.At(0) != 11 || s.At(1) != 22 {
		t.Fatalf("Add = %v", s.Data())
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(New(2), New(3))
}

func TestConcatChannels(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 1, 2)
	b := FromSlice([]float32{9, 10}, 1, 2, 1, 1)
	c := ConcatChannels(a, b)
	if !c.Shape().Equal(Shape{1, 2, 1, 3}) {
		t.Fatalf("concat shape %v", c.Shape())
	}
	want := []float32{1, 2, 9, 3, 4, 10}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("concat data %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("matmul = %v, want %v", c.Data(), want)
		}
	}
}

func TestDenseWithBias(t *testing.T) {
	in := FromSlice([]float32{1, 1}, 1, 2)
	w := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	bias := FromSlice([]float32{10, 20}, 2)
	out := Dense(in, w, bias)
	if out.At(0, 0) != 14 || out.At(0, 1) != 26 {
		t.Fatalf("dense = %v", out.Data())
	}
}

func TestBatchNormIdentity(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	gamma := FromSlice([]float32{1, 1}, 2)
	beta := FromSlice([]float32{0, 0}, 2)
	mean := FromSlice([]float32{0, 0}, 2)
	variance := FromSlice([]float32{1, 1}, 2)
	out := BatchNorm(in, gamma, beta, mean, variance, 0)
	if !AllClose(in, out, 1e-6) {
		t.Fatalf("identity batchnorm changed data: %v", out.Data())
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	in := FromSlice([]float32{10}, 1, 1)
	gamma := FromSlice([]float32{2}, 1)
	beta := FromSlice([]float32{1}, 1)
	mean := FromSlice([]float32{4}, 1)
	variance := FromSlice([]float32{9}, 1)
	out := BatchNorm(in, gamma, beta, mean, variance, 0)
	// 2*(10-4)/3 + 1 = 5
	if math.Abs(float64(out.At(0, 0))-5) > 1e-5 {
		t.Fatalf("batchnorm = %v, want 5", out.At(0, 0))
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	k := FromSlice([]float32{1}, 1, 1, 1, 1)
	out := Conv2D(in, k, nil, 1, Same)
	if !AllClose(in, out, 0) {
		t.Fatalf("1x1 identity conv altered input: %v", out.Data())
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 3x3 all-ones kernel, valid padding → sum of all elems.
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3, 1)
	k := New(3, 3, 1, 1)
	k.Fill(1)
	out := Conv2D(in, k, nil, 1, Valid)
	if !out.Shape().Equal(Shape{1, 1, 1, 1}) {
		t.Fatalf("shape %v", out.Shape())
	}
	if out.At(0, 0, 0, 0) != 45 {
		t.Fatalf("conv = %v, want 45", out.At(0, 0, 0, 0))
	}
}

func TestConv2DSamePaddingShape(t *testing.T) {
	in := New(1, 7, 7, 3)
	k := New(3, 3, 3, 8)
	out := Conv2D(in, k, nil, 2, Same)
	if !out.Shape().Equal(Shape{1, 4, 4, 8}) {
		t.Fatalf("same-pad stride-2 shape %v, want [1 4 4 8]", out.Shape())
	}
}

func TestConvOutShapeMatchesConv(t *testing.T) {
	in := New(1, 11, 9, 2)
	k := New(3, 3, 2, 5)
	for _, pad := range []Padding{Same, Valid} {
		for _, stride := range []int{1, 2, 3} {
			got := Conv2D(in, k, nil, stride, pad).Shape()
			want := ConvOutShape(in.Shape(), 3, 3, stride, pad, 5)
			if !got.Equal(want) {
				t.Errorf("pad %v stride %d: conv %v vs ConvOutShape %v", pad, stride, got, want)
			}
		}
	}
}

func TestDepthwiseConvPerChannel(t *testing.T) {
	// Two channels, kernel doubles ch0 and zeroes ch1.
	in := FromSlice([]float32{1, 10, 2, 20, 3, 30, 4, 40}, 1, 2, 2, 2)
	k := New(1, 1, 2, 1)
	k.Set(2, 0, 0, 0, 0)
	k.Set(0, 0, 0, 1, 0)
	out := DepthwiseConv2D(in, k, nil, 1, Same)
	want := []float32{2, 0, 4, 0, 6, 0, 8, 0}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("depthwise = %v, want %v", out.Data(), want)
		}
	}
}

func TestSeparableEqualsDepthwiseThenPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randTensor(rng, 1, 6, 6, 3)
	dk := randTensor(rng, 3, 3, 3, 1)
	pk := randTensor(rng, 1, 1, 3, 5)
	got := SeparableConv2D(in, dk, pk, nil, 1, Same)
	want := Conv2D(DepthwiseConv2D(in, dk, nil, 1, Same), pk, nil, 1, Same)
	if !AllClose(got, want, 1e-5) {
		t.Fatalf("separable conv diverges from composed form by %v", MaxAbsDiff(got, want))
	}
}

func TestMaxPoolKnown(t *testing.T) {
	in := FromSlice([]float32{1, 3, 2, 4}, 1, 2, 2, 1)
	out := MaxPool2D(in, 2, 2, Valid)
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("maxpool = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestAvgPoolExcludesPadding(t *testing.T) {
	in := FromSlice([]float32{4}, 1, 1, 1, 1)
	out := AvgPool2D(in, 3, 1, Same)
	// Window covers only the single real cell; average must be 4, not 4/9.
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("avgpool with padding = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := FromSlice([]float32{1, 10, 3, 30}, 1, 2, 1, 2)
	out := GlobalAvgPool2D(in)
	if !out.Shape().Equal(Shape{1, 2}) {
		t.Fatalf("shape %v", out.Shape())
	}
	if out.At(0, 0) != 2 || out.At(0, 1) != 20 {
		t.Fatalf("global avg = %v", out.Data())
	}
}

func TestZeroPad2D(t *testing.T) {
	in := FromSlice([]float32{5}, 1, 1, 1, 1)
	out := ZeroPad2D(in, 1, 1, 1, 1)
	if !out.Shape().Equal(Shape{1, 3, 3, 1}) {
		t.Fatalf("shape %v", out.Shape())
	}
	if out.At(0, 1, 1, 0) != 5 {
		t.Fatal("padded value misplaced")
	}
	if out.At(0, 0, 0, 0) != 0 {
		t.Fatal("padding not zero")
	}
}

func TestFlatten(t *testing.T) {
	x := New(2, 3, 4)
	f := Flatten(x)
	if !f.Shape().Equal(Shape{2, 12}) {
		t.Fatalf("flatten shape %v", f.Shape())
	}
}

func TestArgMax(t *testing.T) {
	x := FromSlice([]float32{0.1, 0.7, 0.2}, 3)
	if ArgMax(x) != 1 {
		t.Fatalf("argmax = %d", ArgMax(x))
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 1 {
		t.Fatalf("MaxWorkers = %d", MaxWorkers())
	}
	if got := SetMaxWorkers(-5); got != 1 {
		t.Fatalf("SetMaxWorkers returned %d, want previous 1", got)
	}
	if MaxWorkers() != 1 {
		t.Fatal("negative worker count not clamped")
	}
}

// Property: kernels produce identical results regardless of parallelism.
// The conv's 2·5·5 output pixels carry enough work to split.
func TestParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randTensor(rng, 2, 9, 9, 16)
	k := randTensor(rng, 3, 3, 16, 24)
	bias := randTensor(rng, 24)
	requireSplits(t, 2*5*5, 3*3*16*24)

	defer SetMaxWorkers(SetMaxWorkers(1))
	serial := Conv2D(in, k, bias, 2, Same)
	for _, w := range []int{2, 3, 8} {
		SetMaxWorkers(w)
		sameBits(t, fmt.Sprintf("conv at %d workers vs 1", w), Conv2D(in, k, bias, 2, Same).data, serial.data)
	}
}

// Property: conv with a delta kernel is identity (via testing/quick over
// small random inputs).
func TestConvDeltaIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Intn(6)
		w := 1 + rng.Intn(6)
		c := 1 + rng.Intn(4)
		in := randTensor(rng, 1, h, w, c)
		k := New(1, 1, c, c)
		for i := 0; i < c; i++ {
			k.Set(1, 0, 0, i, i)
		}
		out := Conv2D(in, k, nil, 1, Same)
		return AllClose(in, out, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReLU is idempotent.
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(append([]float32(nil), vals...), len(vals))
		once := ReLUTo(New(x.Shape()...), x)
		twice := ReLUTo(New(once.Shape()...), once)
		return AllClose(once, twice, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestSigmoidTanhRange(t *testing.T) {
	x := FromSlice([]float32{-10, 0, 10}, 3)
	s := SigmoidTo(New(x.Shape()...), x)
	if s.At(0) > 0.001 || math.Abs(float64(s.At(1))-0.5) > 1e-6 || s.At(2) < 0.999 {
		t.Fatalf("sigmoid = %v", s.Data())
	}
	th := TanhTo(New(x.Shape()...), x)
	if th.At(0) > -0.999 || th.At(1) != 0 || th.At(2) < 0.999 {
		t.Fatalf("tanh = %v", th.Data())
	}
}

func TestStack(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 1, 2)
	b := FromSlice([]float32{3, 4, 5, 6}, 2, 2)
	s, err := Stack([]*Tensor{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("stack shape %v", s.Shape())
	}
	want := []float32{1, 2, 3, 4, 5, 6}
	for i, v := range s.Data() {
		if v != want[i] {
			t.Fatalf("stack data %v", s.Data())
		}
	}
	if _, err := Stack(nil); err == nil {
		t.Fatal("empty stack accepted")
	}
	if _, err := Stack([]*Tensor{a, New(1, 3)}); err == nil {
		t.Fatal("mismatched inner shapes accepted")
	}
	if _, err := Stack([]*Tensor{New(3)}); err == nil {
		t.Fatal("rank-1 stack accepted")
	}
}

func TestPaddingString(t *testing.T) {
	if Same.String() != "same" || Valid.String() != "valid" {
		t.Fatal("padding names wrong")
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inner dim mismatch accepted")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestArgMaxEmpty(t *testing.T) {
	if ArgMax(&Tensor{shape: Shape{}, data: nil}) != -1 {
		t.Fatal("empty argmax")
	}
}
