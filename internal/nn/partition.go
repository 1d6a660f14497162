package nn

import "fmt"

// Partition extracts layers [lo, hi) into a standalone model whose input
// layer stands in for the output of layer lo-1 — exactly what the
// paper's Coordinator does when it "divides the YAML file into
// partitioned ones, adds input and output layers". The boundary at lo
// must be a valid cut (see CutPoints); otherwise an error is returned.
// Layer names are preserved, so the original Weights map (or a subset)
// drives the partition unchanged.
func (m *Model) Partition(lo, hi int) (*Model, error) {
	if lo < 1 || hi > len(m.Layers) || lo >= hi {
		return nil, fmt.Errorf("nn: invalid partition range [%d, %d) of %d", lo, hi, len(m.Layers))
	}
	entry := m.Layers[lo-1]
	in := &Layer{Name: "input", Kind: KindInput, OutShape: entry.OutShape.Clone()}
	p := &Model{
		Name:       fmt.Sprintf("%s/part[%d:%d)", m.Name, lo, hi),
		InputShape: entry.OutShape.Clone(),
		Layers:     []*Layer{in},
		index:      map[string]int{"input": 0},
	}
	for i := lo; i < hi; i++ {
		orig := m.Layers[i]
		if orig.Name == "input" {
			return nil, fmt.Errorf("nn: layer name %q collides with the synthetic input layer", orig.Name)
		}
		l := *orig // shallow copy; config fields are values
		l.Inputs = make([]string, len(orig.Inputs))
		l.OutShape = orig.OutShape.Clone()
		for j, ref := range orig.Inputs {
			switch {
			case ref == entry.Name:
				l.Inputs[j] = "input"
			case m.index[ref] >= lo && m.index[ref] < i:
				l.Inputs[j] = ref
			default:
				return nil, fmt.Errorf("nn: layer %q consumes %q produced outside [%d, %d) — lo is not a valid cut point", orig.Name, ref, lo, hi)
			}
		}
		p.index[l.Name] = len(p.Layers)
		p.Layers = append(p.Layers, &l)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("nn: partition [%d, %d) invalid: %w", lo, hi, err)
	}
	return p, nil
}
