package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refHist is the map-backed histogram the sorted-slice logHist replaced,
// kept as the reference its frames must equal.
type refHist struct {
	counts map[int]int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

func (h *refHist) observe(v float64) {
	h.counts[histBucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

func (h *refHist) frame() *HistFrame {
	idxs := make([]int, 0, len(h.counts))
	for idx := range h.counts {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	f := &HistFrame{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	f.Buckets = make([]HistBucket, 0, len(idxs))
	for _, idx := range idxs {
		f.Buckets = append(f.Buckets, HistBucket{Le: histBucketUpper(idx), N: h.counts[idx]})
	}
	f.P50 = h.quantile(idxs, 0.50)
	f.P95 = h.quantile(idxs, 0.95)
	f.P99 = h.quantile(idxs, 0.99)
	return f
}

func (h *refHist) quantile(sortedIdxs []int, q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, idx := range sortedIdxs {
		seen += h.counts[idx]
		if seen >= rank {
			up := histBucketUpper(idx)
			if up > h.max {
				up = h.max
			}
			return up
		}
	}
	return h.max
}

// histSample draws from the shapes simulated telemetry produces and the
// ones the grid treats specially: the zero bucket (v ≤ 0, -0 included),
// sub-1 values (negative bucket indexes), binade edges and repeats.
func histSample(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return []float64{0, math.Copysign(0, -1), -1.5, -1e-9}[rng.Intn(4)]
	case 1:
		return rng.Float64() * 1e-3
	case 2:
		return math.Ldexp(1, rng.Intn(40)-20)
	case 3:
		return float64(rng.Intn(4)) * 0.25
	default:
		return rng.ExpFloat64() * 3
	}
}

func TestLogHistMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &logHist{}
	for trial := 0; trial < 500; trial++ {
		ref := &refHist{counts: map[int]int64{}}
		for n := 1 + rng.Intn(200); n > 0; n-- {
			v := histSample(rng)
			h.observe(v)
			ref.observe(v)
		}
		var got HistFrame
		h.frame(&got, make([]HistBucket, len(h.cells)))
		if want := ref.frame(); !reflect.DeepEqual(&got, want) {
			t.Fatalf("trial %d: frame %+v, reference %+v", trial, got, *want)
		}
		h.reset() // reuse, as the series' free list does
	}
}

// Windows opened out of order must still flush in ascending order, with
// the recordings each one received.
func TestTimeSeriesOutOfOrderWindows(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	for _, w := range []int{5, 2, 9, 2, 7, 0, 5} {
		ts.CounterHandle("n").Inc(time.Duration(w)*time.Second, 1)
		ts.HistHandle("lat").Observe(time.Duration(w)*time.Second, float64(w))
	}
	var seen []int64
	ts.Subscribe(func(f *WindowFrame) { seen = append(seen, f.Index) })
	ts.Advance(6 * time.Second)
	ts.CounterHandle("n").Inc(3*time.Second, 1) // below the flush point: clamped into window 6
	ts.Close()
	if want := []int64{0, 2, 5, 6, 7, 9}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("flush order %v, want %v", seen, want)
	}
	counts := map[int64]int64{}
	for _, f := range ts.Frames() {
		counts[f.Index] = f.Counters["n"]
		if h := f.Hists["lat"]; f.Index != 6 && (h == nil || h.Count != f.Counters["n"] || h.Max != float64(f.Index)) {
			t.Fatalf("window %d histogram %+v", f.Index, h)
		}
	}
	if want := map[int64]int64{0: 1, 2: 2, 5: 2, 6: 1, 7: 1, 9: 1}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("per-window counts %v, want %v", counts, want)
	}
}
