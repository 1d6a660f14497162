package workload

import (
	"math"
	"slices"
	"testing"
	"time"

	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
)

func TestImageShapeAndDeterminism(t *testing.T) {
	m := zoo.TinyCNN(0)
	a := Image(m, 5)
	b := Image(m, 5)
	if !a.Shape().Equal(m.InputShape) {
		t.Fatalf("image shape %v", a.Shape())
	}
	if !tensor.AllClose(a, b, 0) {
		t.Fatal("same seed produced different images")
	}
	c := Image(m, 6)
	if tensor.AllClose(a, c, 0) {
		t.Fatal("different seeds produced identical images")
	}
	for _, v := range a.Data() {
		if v < 0 || v >= 1 {
			t.Fatalf("pixel %v outside [0,1)", v)
		}
	}
}

func TestImagesDistinct(t *testing.T) {
	m := zoo.TinyCNN(0)
	imgs := Images(m, 4, 1)
	if len(imgs) != 4 {
		t.Fatalf("%d images", len(imgs))
	}
	for i := 1; i < len(imgs); i++ {
		if tensor.AllClose(imgs[0], imgs[i], 0) {
			t.Fatalf("image %d duplicates image 0", i)
		}
	}
}

func TestBatches(t *testing.T) {
	m := zoo.TinyCNN(0)
	// A non-positive batch size behaves as 1, a non-positive n as empty,
	// the way the arrival generators clamp.
	for _, tc := range []struct {
		n, batchSize int
		sizes        []int
	}{
		{7, 3, []int{3, 3, 1}},
		{3, 0, []int{1, 1, 1}},
		{3, -2, []int{1, 1, 1}},
		{-1, 3, nil},
		{0, 0, nil},
	} {
		bs := Batches(m, tc.n, tc.batchSize, 1)
		if len(bs) != len(tc.sizes) {
			t.Fatalf("Batches(%d, %d): %d batches, want %d", tc.n, tc.batchSize, len(bs), len(tc.sizes))
		}
		for i, b := range bs {
			if len(b) != tc.sizes[i] {
				t.Errorf("Batches(%d, %d): batch %d holds %d, want %d", tc.n, tc.batchSize, i, len(b), tc.sizes[i])
			}
		}
	}
	if imgs := Images(m, -1, 1); len(imgs) != 0 {
		t.Fatalf("Images(-1) gave %d images", len(imgs))
	}
}

func TestPoissonArrivals(t *testing.T) {
	a := PoissonArrivals(100, 2, 9)
	if len(a) != 100 {
		t.Fatalf("%d arrivals", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	// Mean inter-arrival ≈ 0.5 s at rate 2/s (loose bound).
	mean := a[len(a)-1].Seconds() / float64(len(a))
	if mean < 0.3 || mean > 0.8 {
		t.Fatalf("mean inter-arrival %.2fs, want ≈0.5", mean)
	}
	b := PoissonArrivals(100, 2, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("arrivals not deterministic in seed")
		}
	}
	if PoissonArrivals(0, 2, 1) != nil {
		t.Fatal("n=0 should return nil")
	}
	// A non-positive or NaN rate falls back to one request per second.
	// (FuzzArrivals holds degenerate rates like 5e-324 to sorted,
	// non-negative offsets.)
	want := PoissonArrivals(50, 1, 9)
	for _, c := range []struct {
		name string
		rate float64
	}{{"zero rate", 0}, {"negative rate", -2}, {"NaN rate", math.NaN()}} {
		t.Run(c.name, func(t *testing.T) {
			if got := PoissonArrivals(50, c.rate, 9); !slices.Equal(got, want) {
				t.Fatalf("rate %v: arrivals differ from rate 1", c.rate)
			}
		})
	}
}

func TestUniformAndBurstArrivals(t *testing.T) {
	u := UniformArrivals(4, 4*time.Second)
	want := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}
	for i := range u {
		if u[i] != want[i] {
			t.Fatalf("uniform arrivals %v", u)
		}
	}
	b := BurstArrivals(6, 3, time.Second)
	if b[0] != 0 || b[2] != 0 || b[3] != time.Second || b[5] != time.Second {
		t.Fatalf("burst arrivals %v", b)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2, 5}
	if got := Percentile(ds, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(ds, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(nil, 95); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be reordered.
	if ds[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}
