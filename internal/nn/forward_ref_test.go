package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ampsinf/internal/tensor"
)

// refForwardRange is the specification ForwardRange must equal: every
// layer makes a new output with tensor's allocating kernels, every
// activation is kept until the end, nothing is written twice.
func (m *Model) refForwardRange(w Weights, lo, hi int, input *tensor.Tensor) *tensor.Tensor {
	acts := map[string]*tensor.Tensor{m.Layers[lo-1].Name: input}
	var out *tensor.Tensor
	for _, l := range m.Layers[lo:hi] {
		ins := make([]*tensor.Tensor, len(l.Inputs))
		for j, name := range l.Inputs {
			ins[j] = acts[name]
		}
		out = refEval(l, w[l.Name], ins)
		acts[l.Name] = out
	}
	return out
}

func refEval(l *Layer, ws []*tensor.Tensor, ins []*tensor.Tensor) *tensor.Tensor {
	x := ins[0]
	var t *tensor.Tensor
	switch l.Kind {
	case KindConv2D:
		t = tensor.Conv2D(x, ws[0], ws[1], l.Stride, l.Pad)
	case KindDepthwiseConv2D:
		t = tensor.DepthwiseConv2D(x, ws[0], ws[1], l.Stride, l.Pad)
	case KindSeparableConv2D:
		t = tensor.SeparableConv2D(x, ws[0], ws[1], ws[2], l.Stride, l.Pad)
	case KindDense:
		t = tensor.Dense(x, ws[0], ws[1])
	case KindBatchNorm:
		t = tensor.BatchNormTo(tensor.New(x.Shape()...), x, ws[0], ws[1], ws[2], ws[3], l.Eps)
	case KindActivation, KindDropout:
		t = x
	case KindMaxPool:
		t = tensor.MaxPool2D(x, l.KH, l.Stride, l.Pad)
	case KindAvgPool:
		t = tensor.AvgPool2D(x, l.KH, l.Stride, l.Pad)
	case KindGlobalAvgPool:
		t = tensor.GlobalAvgPool2D(x)
	case KindZeroPad:
		t = tensor.ZeroPad2D(x, l.PadT, l.PadB, l.PadL, l.PadR)
	case KindAdd:
		t = x
		for _, o := range ins[1:] {
			t = tensor.AddTo(tensor.New(t.Shape()...), t, o)
		}
	case KindConcat:
		t = tensor.ConcatChannels(ins...)
	case KindFlatten:
		t = tensor.Flatten(x)
	default:
		panic(fmt.Sprintf("refEval: %v not in the generated graphs", l.Kind))
	}
	switch l.Activation {
	case ActReLU:
		t = tensor.ReLUTo(tensor.New(t.Shape()...), t)
	case ActReLU6:
		t = tensor.ReLU6To(tensor.New(t.Shape()...), t)
	case ActSigmoid:
		t = tensor.SigmoidTo(tensor.New(t.Shape()...), t)
	case ActTanh:
		t = tensor.TanhTo(tensor.New(t.Shape()...), t)
	case ActSoftmax:
		t = tensor.SoftmaxTo(tensor.New(t.Shape()...), t)
	}
	return t
}

// dagGen grows a random layer graph over [1, 6, 6, c] activations out of
// the shapes that decide who may overwrite what: chains of elementwise
// layers, fused activations, and merges whose branches reach them
// through views (Dropout, no-op Activation, Flatten) taken before or
// after the other consumers of the same tensor.
type dagGen struct {
	b   *Builder
	rng *rand.Rand
	n   int
}

const dagChannels = 4

func (g *dagGen) name(prefix string) string {
	g.n++
	return fmt.Sprintf("%s%d", prefix, g.n)
}

func (g *dagGen) act() Act {
	return []Act{ActNone, ActNone, ActReLU, ActReLU6, ActSigmoid, ActTanh}[g.rng.Intn(6)]
}

// views chains zero to two layers that return their input's memory.
func (g *dagGen) views(x string) string {
	for k := g.rng.Intn(3); k > 0; k-- {
		if g.rng.Intn(2) == 0 {
			x = g.b.Dropout(g.name("drop"), x)
		} else {
			x = g.b.Activation(g.name("id"), x, ActNone)
		}
	}
	return x
}

// compute adds one layer that keeps the shape.
func (g *dagGen) compute(x string) string {
	switch g.rng.Intn(6) {
	case 0:
		return g.b.Conv(g.name("conv"), x, dagChannels, 3, 3, 1, tensor.Same, g.act())
	case 1:
		return g.b.Conv(g.name("pw"), x, dagChannels, 1, 1, 1, tensor.Same, g.act())
	case 2:
		return g.b.DepthwiseConv(g.name("dw"), x, 3, 3, 1, tensor.Same, g.act())
	case 3:
		return g.b.Activation(g.name("act"), x, g.act())
	case 4:
		return g.b.MaxPool(g.name("pool"), x, 3, 1, tensor.Same)
	default:
		return g.b.BatchNorm(g.name("bn"), x)
	}
}

// add merges branches in a random order, sometimes with x as a third.
func (g *dagGen) add(x string, ins ...string) string {
	if g.rng.Intn(4) == 0 {
		ins = append(ins, x)
	}
	g.rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	return g.b.Add(g.name("add"), g.act(), ins...)
}

func (g *dagGen) block(x string) string {
	switch g.rng.Intn(7) {
	case 0:
		return g.compute(x)
	case 1:
		return g.views(x)
	case 2: // residual; the skip's views are taken before the main branch reads x
		skip := g.views(x)
		return g.add(x, g.compute(g.compute(x)), skip)
	case 3: // residual; the skip's views are x's last use
		main := g.compute(x)
		return g.add(x, g.views(x), main)
	case 4: // an elementwise layer is x's last consumer while a view of x is live
		view := g.b.Dropout(g.name("drop"), x)
		return g.add(x, view, g.b.BatchNorm(g.name("bn"), x))
	case 5: // both operands of the merge are views of one tensor
		return g.add(x, g.views(x), g.b.Activation(g.name("id"), x, ActNone))
	default:
		cat := g.b.Concat(g.name("cat"), g.compute(x), g.views(x))
		return g.b.Conv(g.name("mix"), cat, dagChannels, 1, 1, 1, tensor.Same, g.act())
	}
}

func randomDAG(seed int64) *Model {
	g := &dagGen{b: NewBuilder(fmt.Sprintf("dag%d", seed), 6, 6, dagChannels), rng: rand.New(rand.NewSource(seed))}
	x := g.b.Input()
	for k := 2 + g.rng.Intn(5); k > 0; k-- {
		x = g.block(x)
	}
	// A merge of two flattened views, one of them through a compute layer.
	flat := g.b.Flatten(g.name("flat"), g.views(x))
	x = g.b.Add(g.name("add"), g.act(), g.b.Flatten(g.name("flat"), g.compute(x)), flat)
	g.b.Dense("fc", g.b.Dropout(g.name("drop"), x), 5, ActSoftmax)
	return g.b.Model()
}

func bitsOf(t *tensor.Tensor) []uint32 {
	out := make([]uint32, t.Elems())
	for i, v := range t.Data() {
		out[i] = math.Float32bits(v)
	}
	return out
}

func sameBits(a []uint32, b *tensor.Tensor) bool {
	if len(a) != b.Elems() {
		return false
	}
	for i, v := range b.Data() {
		if a[i] != math.Float32bits(v) {
			return false
		}
	}
	return true
}

// ForwardRange overwrites activations it owns. On random graphs, over
// every range between two valid cuts, it must return the bits of the
// evaluator that overwrites nothing, and leave its entry tensor and the
// weights as it found them.
func TestForwardRangeMatchesOutOfPlaceEvaluator(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		m := randomDAG(seed)
		w := InitWeights(m, seed)
		rng := rand.New(rand.NewSource(seed))
		// Batch-norm statistics that do something, biases that are not zero.
		for _, ts := range w {
			for _, p := range ts {
				for i := range p.Data() {
					if p.Rank() == 1 {
						p.Data()[i] = 0.5 + rng.Float32()
					}
				}
			}
		}
		wBits := map[string][][]uint32{}
		for name, ts := range w {
			for _, p := range ts {
				wBits[name] = append(wBits[name], bitsOf(p))
			}
		}
		in := tensor.New(m.InputShape...)
		for i := range in.Data() {
			in.Data()[i] = float32(rng.NormFloat64())
		}
		in.Data()[0], in.Data()[1] = float32(math.Copysign(0, -1)), -3

		cuts := append(m.CutPoints(), len(m.Layers))
		for i, lo := range cuts[:len(cuts)-1] {
			entry := in
			if lo > 1 {
				entry = m.refForwardRange(w, 1, lo, in)
			}
			entryBits := bitsOf(entry)
			for _, hi := range cuts[i+1:] {
				got, err := m.ForwardRange(w, lo, hi, entry)
				if err != nil {
					t.Fatalf("seed %d [%d, %d): %v", seed, lo, hi, err)
				}
				want := m.refForwardRange(w, lo, hi, entry)
				if !got.Shape().Equal(want.Shape()) || !sameBits(bitsOf(want), got) {
					t.Fatalf("seed %d [%d, %d): ForwardRange differs from the out-of-place evaluator\n%s", seed, lo, hi, m.Summary())
				}
				if !sameBits(entryBits, entry) {
					t.Fatalf("seed %d [%d, %d): ForwardRange wrote into its entry tensor\n%s", seed, lo, hi, m.Summary())
				}
			}
		}
		for name, ts := range w {
			for i, p := range ts {
				if !sameBits(wBits[name][i], p) {
					t.Fatalf("seed %d: ForwardRange wrote into weight %s[%d]", seed, name, i)
				}
			}
		}
	}
}
