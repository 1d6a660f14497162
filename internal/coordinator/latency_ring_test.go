package coordinator

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refRing is the copy-and-sort percentile the sorted mirror replaced,
// kept as the reference latencyRing must agree with.
type refRing struct {
	buf  [latencyHistorySize]time.Duration
	n    int
	next int
}

func (r *refRing) add(d time.Duration) {
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	r.n++
}

func (r *refRing) percentile(p float64) time.Duration {
	n := min(r.n, len(r.buf))
	if n == 0 {
		return 0
	}
	sorted := make([]time.Duration, n)
	copy(sorted, r.buf[:n])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

// checkRing feeds samples to both rings and compares them after every
// add: the six percentiles the policies can ask for, and that sorted is
// an ascending permutation of the live part of buf.
func checkRing(t *testing.T, samples []time.Duration) {
	t.Helper()
	var got latencyRing
	var want refRing
	for step, d := range samples {
		got.add(d)
		want.add(d)
		n := got.size()
		for _, p := range []float64{0, 1, 50, 95, 99, 100} {
			if g, w := got.percentile(p), want.percentile(p); g != w {
				t.Fatalf("after %d adds: percentile(%v) = %v, reference %v", step+1, p, g, w)
			}
		}
		if got.buf != want.buf || got.n != want.n || got.next != want.next {
			t.Fatalf("after %d adds: ring state diverged from the reference", step+1)
		}
		live := slices.Clone(got.buf[:n])
		slices.Sort(live)
		if !slices.Equal(live, got.sorted[:n]) {
			t.Fatalf("after %d adds: sorted %v is not the live samples %v in order", step+1, got.sorted[:n], live)
		}
	}
}

func TestLatencyRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		// A small value range forces duplicates; zero and negative
		// durations are legal samples; 3× the ring size wraps twice.
		spread := int64(1 + rng.Intn(40))
		samples := make([]time.Duration, 1+rng.Intn(3*latencyHistorySize))
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(2*spread+1) - spread)
			if rng.Intn(8) == 0 {
				samples[i] *= time.Duration(rng.Int63n(int64(time.Hour)))
			}
		}
		checkRing(t, samples)
	}
	if (&latencyRing{}).percentile(95) != 0 {
		t.Fatal("empty ring must report 0")
	}
}

// FuzzLatencyRing decodes the input as little-endian int16 samples (a
// narrow range, so duplicates and evictions of equal values are common)
// and checks the ring against the reference after every add. The seed
// corpus is testdata/fuzz/FuzzLatencyRing.
func FuzzLatencyRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		samples := make([]time.Duration, min(len(data)/2, 4*latencyHistorySize))
		for i := range samples {
			samples[i] = time.Duration(int16(binary.LittleEndian.Uint16(data[2*i:])))
		}
		checkRing(t, samples)
	})
}

// The hedge delay is computed after every executed attempt: it must not
// allocate, whichever of the fixed and percentile paths it takes.
func TestHedgeDelayAllocatesNothing(t *testing.T) {
	_, d, _, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) {
		cfg.Hedge = HedgePolicy{Percentile: 95, Delay: 2 * time.Second}
	})
	p := d.parts[0]
	for i := 0; i <= 2*latencyHistorySize; i++ {
		if i == 1 || i == 2*latencyHistorySize {
			if n := testing.AllocsPerRun(100, func() { d.hedgeDelay(p) }); n != 0 {
				t.Fatalf("hedgeDelay allocates %v times per call with %d samples", n, p.hist.size())
			}
		}
		d.recordLatency(p, time.Duration(i%17)*time.Millisecond)
	}
}
