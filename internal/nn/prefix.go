package nn

// SegmentPrefix precomputes cumulative statistics over a segment list so
// that any consecutive span [a, b) can be aggregated in O(1), where the
// direct loop is O(b−a). Sums (layers, parameters, FLOPs) use prefix
// arrays; the span maximum of PeakActBytes uses a sparse table (range
// maximum query), so every answer is exactly the value the direct loop
// would produce — integer arithmetic only, no rounding.
//
// The structure is immutable after construction and safe for concurrent
// readers; the optimizer's parallel span-table build relies on that.
type SegmentPrefix struct {
	// layers[i], params[i], flops[i] hold the sums over segs[:i].
	layers []int
	params []int64
	flops  []int64
	// peak[k][i] is max PeakActBytes over segs[i : i+2^k].
	peak [][]int64
	// log2[n] is floor(log2(n)) for 1 ≤ n ≤ len(segs).
	log2 []int
}

// NewSegmentPrefix builds the prefix statistics for segs. The segment
// slice is not retained.
func NewSegmentPrefix(segs []Segment) *SegmentPrefix {
	n := len(segs)
	p := &SegmentPrefix{
		layers: make([]int, n+1),
		params: make([]int64, n+1),
		flops:  make([]int64, n+1),
	}
	for i, s := range segs {
		p.layers[i+1] = p.layers[i] + s.Layers
		p.params[i+1] = p.params[i] + s.Params
		p.flops[i+1] = p.flops[i] + s.FLOPs
	}
	p.log2 = make([]int, n+1)
	for i := 2; i <= n; i++ {
		p.log2[i] = p.log2[i/2] + 1
	}
	levels := 1
	if n > 0 {
		levels = p.log2[n] + 1
	}
	p.peak = make([][]int64, levels)
	p.peak[0] = make([]int64, n)
	for i, s := range segs {
		p.peak[0][i] = s.PeakActBytes
	}
	for k := 1; k < levels; k++ {
		w := 1 << k
		row := make([]int64, n-w+1)
		prev := p.peak[k-1]
		for i := range row {
			row[i] = prev[i]
			if v := prev[i+w/2]; v > row[i] {
				row[i] = v
			}
		}
		p.peak[k] = row
	}
	return p
}

// Layers returns Σ segs[a:b].Layers.
func (p *SegmentPrefix) Layers(a, b int) int { return p.layers[b] - p.layers[a] }

// Params returns Σ segs[a:b].Params.
func (p *SegmentPrefix) Params(a, b int) int64 { return p.params[b] - p.params[a] }

// FLOPs returns Σ segs[a:b].FLOPs.
func (p *SegmentPrefix) FLOPs(a, b int) int64 { return p.flops[b] - p.flops[a] }

// MaxPeakAct returns max segs[a:b].PeakActBytes, or 0 for an empty span.
func (p *SegmentPrefix) MaxPeakAct(a, b int) int64 {
	if b <= a {
		return 0
	}
	k := p.log2[b-a]
	lo, hi := p.peak[k][a], p.peak[k][b-(1<<k)]
	if hi > lo {
		return hi
	}
	return lo
}
