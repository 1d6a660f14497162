package perf

import "ampsinf/internal/nn"

// SpanProfiler profiles a consecutive segment span in O(1) by
// precomputing prefix sums (layers, FLOPs, weights) and a range-max
// table (peak activation) over the segment list. All aggregation is
// integer arithmetic, so every profile is bit-identical to summing the
// span's segments one by one — a property the tests assert. The
// profiler is immutable after construction and safe for concurrent
// readers.
type SpanProfiler struct {
	segs     []nn.Segment
	prefix   *nn.SegmentPrefix
	inBytes0 int64
}

// NewSpanProfiler builds the prefix statistics for one model's segments.
func NewSpanProfiler(m *nn.Model, segs []nn.Segment) *SpanProfiler {
	return &SpanProfiler{
		segs:     segs,
		prefix:   nn.NewSegmentPrefix(segs),
		inBytes0: int64(m.InputShape.Elems()) * 4,
	}
}

// Profile aggregates the segment span [sLo, sHi) into a SegmentProfile.
func (sp *SpanProfiler) Profile(sLo, sHi int) SegmentProfile {
	p := SegmentProfile{
		Layers:       sp.prefix.Layers(sLo, sHi),
		FLOPs:        sp.prefix.FLOPs(sLo, sHi),
		WeightsBytes: sp.prefix.Params(sLo, sHi) * 4,
		PeakActBytes: sp.prefix.MaxPeakAct(sLo, sHi),
	}
	if sLo == 0 {
		p.InBytes = sp.inBytes0
	} else {
		p.InBytes = sp.segs[sLo-1].OutBytes
	}
	p.OutBytes = sp.segs[sHi-1].OutBytes
	return p
}
