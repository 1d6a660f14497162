package perf

import (
	"testing"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/nn/zoo"
)

func TestShareMonotoneAndSaturating(t *testing.T) {
	p := Default()
	prev := 0.0
	for mb := 128; mb <= 3008; mb += 64 {
		s := p.Share(mb)
		if s <= 0 || s > 1 {
			t.Fatalf("share(%d) = %v out of (0,1]", mb, s)
		}
		if s < prev {
			t.Fatalf("share not monotone at %d", mb)
		}
		prev = s
	}
	if p.Share(1792) != 1 || p.Share(3008) != 1 {
		t.Fatal("share must saturate at 1792")
	}
}

func TestPenaltyBounds(t *testing.T) {
	p := Default()
	if p.Penalty(1024, 0) != 1 {
		t.Fatal("zero working set must have no penalty")
	}
	if p.Penalty(512, 200) <= p.Penalty(1024, 200) {
		t.Fatal("penalty must shrink with memory")
	}
	if p.Penalty(512, 200) < 1 {
		t.Fatal("penalty below 1")
	}
}

// Calibration: MobileNet single-lambda end-to-end times must track the
// paper's Table 2 within 15%.
func TestMobileNetTable2Calibration(t *testing.T) {
	m := zoo.MobileNet(0)
	p := Default()
	flops := m.TotalFLOPs()
	wb := m.WeightBytes()
	want := map[int]float64{512: 22.03, 1024: 10.65, 1536: 7.52, 2048: 6.38, 3008: 6.32}
	for mem, sec := range want {
		got := p.EndToEndTime(mem, flops, wb).Seconds()
		ratio := got / sec
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("MobileNet @%dMB = %.2fs, paper %.2fs (ratio %.2f)", mem, got, sec, ratio)
		}
	}
}

// The cost curve over Table 2's memory choices must be U-shaped with the
// minimum at 1024 MB, as the paper reports.
func TestMobileNetCostMinimumAt1024(t *testing.T) {
	m := zoo.MobileNet(0)
	p := Default()
	cost := func(mem int) float64 {
		d := p.EndToEndTime(mem, m.TotalFLOPs(), m.WeightBytes())
		return pricing.LambdaExecutionCost(mem, d)
	}
	best, bestCost := 0, 1e9
	for _, mem := range []int{512, 1024, 1536, 2048, 3008} {
		if c := cost(mem); c < bestCost {
			best, bestCost = mem, c
		}
	}
	if best != 1024 {
		t.Fatalf("cheapest Table-2 memory = %d, paper says 1024", best)
	}
}

func TestCompletionTimeMonotoneInMemory(t *testing.T) {
	m := zoo.MobileNet(0)
	p := Default()
	prev := time.Duration(1<<62 - 1)
	for _, mem := range pricing.MemoryBlocks() {
		d := p.EndToEndTime(mem, m.TotalFLOPs(), m.WeightBytes())
		if d > prev {
			t.Fatalf("completion time increased at %d MB", mem)
		}
		prev = d
	}
}

func TestMinFeasibleMemory(t *testing.T) {
	p := Default()
	// A 98 MB partition needs ≥ (169+1+40+98)*1.1 ≈ 339 MB → block ≥ 384.
	got := p.MinFeasibleMemoryMB(98<<20, 128, 64)
	if got < 320 || got > 448 {
		t.Fatalf("min feasible memory = %d, want ≈384", got)
	}
	if (got-128)%64 != 0 {
		t.Fatalf("min feasible %d not on the block grid", got)
	}
	// Tiny partitions still need the dependency working set.
	if small := p.MinFeasibleMemoryMB(0, 128, 64); small < 192 {
		t.Fatalf("empty partition min memory = %d, must cover deps", small)
	}
}

func TestProfilePartitionConservation(t *testing.T) {
	m := zoo.TinyCNN(0)
	segs := m.Segments()
	sp := NewSpanProfiler(m, segs)
	whole := sp.Profile(0, len(segs))
	if whole.FLOPs != m.TotalFLOPs() {
		t.Errorf("whole-model profile flops %d != %d", whole.FLOPs, m.TotalFLOPs())
	}
	if whole.WeightsBytes != m.WeightBytes() {
		t.Errorf("whole-model profile weights %d != %d", whole.WeightsBytes, m.WeightBytes())
	}
	if whole.InBytes != int64(m.InputShape.Elems())*4 {
		t.Errorf("input bytes %d", whole.InBytes)
	}
	// Split in two: flops and weights must sum; boundary sizes must chain.
	mid := len(segs) / 2
	a := sp.Profile(0, mid)
	b := sp.Profile(mid, len(segs))
	if a.FLOPs+b.FLOPs != whole.FLOPs {
		t.Error("split flops do not sum")
	}
	if a.WeightsBytes+b.WeightsBytes != whole.WeightsBytes {
		t.Error("split weights do not sum")
	}
	if a.OutBytes != b.InBytes {
		t.Errorf("boundary mismatch: out %d vs in %d", a.OutBytes, b.InBytes)
	}
	if b.OutBytes != whole.OutBytes {
		t.Error("final output size changed by split")
	}
}

func TestDeployAndTmpBytes(t *testing.T) {
	s := SegmentProfile{WeightsBytes: 50 << 20, InBytes: 2 << 20, PeakActBytes: 8 << 20}
	if got := s.DeployBytes(); got != 51<<20+256<<10 {
		t.Fatalf("deploy bytes = %d", got)
	}
	if got := s.TmpBytes(); got != 60<<20 {
		t.Fatalf("tmp bytes = %d", got)
	}
}

func TestTimesScaleWithMemory(t *testing.T) {
	p := Default()
	// Doubling memory below saturation should roughly halve each phase.
	lo := p.ComputeTime(512, 1e9, 10<<20)
	hi := p.ComputeTime(1024, 1e9, 10<<20)
	ratio := float64(lo) / float64(hi)
	if ratio < 1.8 || ratio > 2.3 {
		t.Fatalf("512→1024 compute ratio %.2f, want ≈2", ratio)
	}
	if p.DepsInitTime(512, 0) <= p.DepsInitTime(3008, 0) {
		t.Fatal("deps init must shrink with memory")
	}
}

func TestBatchFLOPs(t *testing.T) {
	p := Default()
	if got := p.BatchFLOPs(1000, 1); got != 1000 {
		t.Fatalf("batch of 1 = %d", got)
	}
	// Batch of 5 at 0.25 marginal: 1 + 4×0.25 = 2× the single cost.
	if got := p.BatchFLOPs(1000, 5); got != 2000 {
		t.Fatalf("batch of 5 = %d, want 2000", got)
	}
	if got := p.BatchFLOPs(1000, 0); got != 1000 {
		t.Fatalf("batch of 0 = %d", got)
	}
	zero := Default()
	zero.BatchMarginal = 0
	// Unset marginal degrades to linear scaling.
	if got := zero.BatchFLOPs(1000, 3); got != 3000 {
		t.Fatalf("linear fallback = %d", got)
	}
}

func TestEndToEndTimeComposition(t *testing.T) {
	p := Default()
	total := p.EndToEndTime(1024, 1e9, 10<<20)
	parts := p.ColdStartBase + p.InvokeOverhead +
		p.DepsInitTime(1024, 10<<20) + p.WeightsLoadTime(1024, 10<<20) +
		p.ComputeTime(1024, 1e9, 10<<20)
	if total != parts {
		t.Fatalf("composition mismatch: %v vs %v", total, parts)
	}
}
