package nn

import "fmt"

// CutPoints returns the layer positions p (1 ≤ p < len(Layers)) at which
// the model may be split: cutting before layer p is valid when exactly one
// tensor crosses the boundary — the output of layer p-1 — and every layer
// at position ≥ p consumes only outputs of layers ≥ p-1. Such a boundary
// lets a partition receive a single intermediate tensor from its
// predecessor, which is how the Coordinator stages activations through S3.
//
// Position 1 (cut between the input layer and the first real layer) is
// always valid and always included; a returned position equal to
// len(Layers) is not produced (the end of the model is implicit).
func (m *Model) CutPoints() []int {
	n := len(m.Layers)
	// lastUse[i] = topological position of the last consumer of layer i's
	// output (or i itself if unconsumed — the final layer).
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = i
	}
	for i, l := range m.Layers {
		for _, in := range l.Inputs {
			j := m.index[in]
			if i > lastUse[j] {
				lastUse[j] = i
			}
		}
	}
	var cuts []int
	for p := 1; p < n; p++ {
		// A cut before position p is valid iff no layer before p-1 is
		// still live (consumed at or after p).
		ok := true
		for j := 0; j < p-1; j++ {
			if lastUse[j] >= p {
				ok = false
				break
			}
		}
		if ok {
			cuts = append(cuts, p)
		}
	}
	return cuts
}

// Segment is an atomic run of layers between consecutive valid cut points.
// Partitions are unions of consecutive segments, so every partition
// boundary is a valid cut.
type Segment struct {
	Lo, Hi   int   // layer positions [Lo, Hi)
	Layers   int   // number of layers in the segment (Hi - Lo)
	Params   int64 // trainable parameters in the segment
	FLOPs    int64 // compute for one example
	OutBytes int64 // activation bytes crossing the segment's exit boundary
	// PeakActBytes is the largest single activation produced inside the
	// segment — a lower bound on the temporary memory needed to execute it.
	PeakActBytes int64
}

// WeightBytes returns the segment's parameter bytes (float32).
func (s Segment) WeightBytes() int64 { return s.Params * 4 }

// Segments partitions the model's real layers (positions 1..len-1) into
// atomic segments delimited by CutPoints. The concatenation of all
// segments covers every layer exactly once, in order.
func (m *Model) Segments() []Segment {
	cuts := m.CutPoints()
	bounds := append(append([]int{}, cuts...), len(m.Layers))
	var segs []Segment
	lo := 1
	for _, hi := range bounds {
		if hi <= lo {
			continue
		}
		seg := Segment{Lo: lo, Hi: hi, Layers: hi - lo}
		for i := lo; i < hi; i++ {
			l := m.Layers[i]
			seg.Params += l.ParamCount
			seg.FLOPs += l.FLOPs
			if ab := l.ActivationBytes(); ab > seg.PeakActBytes {
				seg.PeakActBytes = ab
			}
		}
		seg.OutBytes = m.Layers[hi-1].ActivationBytes()
		segs = append(segs, seg)
		lo = hi
	}
	return segs
}

// SegmentRange converts a span of consecutive segments [sLo, sHi) into the
// layer range [Lo, Hi) it covers.
func SegmentRange(segs []Segment, sLo, sHi int) (lo, hi int, err error) {
	if sLo < 0 || sHi > len(segs) || sLo >= sHi {
		return 0, 0, fmt.Errorf("nn: invalid segment span [%d, %d) of %d", sLo, sHi, len(segs))
	}
	return segs[sLo].Lo, segs[sHi-1].Hi, nil
}
