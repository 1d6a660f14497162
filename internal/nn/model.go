// Package nn defines the neural-network intermediate representation used
// throughout the repository: a layer DAG with shape, parameter-count and
// FLOP inference, deterministic weight initialization, a forward-pass
// executor (whole-model or per-partition), and the cut-point analysis
// that determines where a model may legally be split across serverless
// functions.
package nn

import (
	"fmt"

	"ampsinf/internal/tensor"
)

// Kind identifies a layer type.
type Kind int

const (
	KindInput Kind = iota
	KindConv2D
	KindDepthwiseConv2D
	KindSeparableConv2D
	KindDense
	KindBatchNorm
	KindActivation
	KindMaxPool
	KindAvgPool
	KindGlobalAvgPool
	KindZeroPad
	KindAdd
	KindConcat
	KindFlatten
	KindDropout
	KindLayerNorm
	KindSelfAttention
	KindTimeDense
)

var kindNames = map[Kind]string{
	KindInput:           "Input",
	KindConv2D:          "Conv2D",
	KindDepthwiseConv2D: "DepthwiseConv2D",
	KindSeparableConv2D: "SeparableConv2D",
	KindDense:           "Dense",
	KindBatchNorm:       "BatchNorm",
	KindActivation:      "Activation",
	KindMaxPool:         "MaxPool2D",
	KindAvgPool:         "AvgPool2D",
	KindGlobalAvgPool:   "GlobalAvgPool2D",
	KindZeroPad:         "ZeroPadding2D",
	KindAdd:             "Add",
	KindConcat:          "Concatenate",
	KindFlatten:         "Flatten",
	KindDropout:         "Dropout",
	KindLayerNorm:       "LayerNorm",
	KindSelfAttention:   "SelfAttention",
	KindTimeDense:       "TimeDense",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Act selects a layer's fused activation.
type Act int

const (
	ActNone Act = iota
	ActReLU
	ActReLU6
	ActSigmoid
	ActTanh
	ActSoftmax
	ActGELU
)

var actNames = map[Act]string{
	ActNone: "none", ActReLU: "relu", ActReLU6: "relu6",
	ActSigmoid: "sigmoid", ActTanh: "tanh", ActSoftmax: "softmax",
	ActGELU: "gelu",
}

func (a Act) String() string {
	if s, ok := actNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Act(%d)", int(a))
}

// Layer is one node of the model DAG. Config fields are interpreted
// according to Kind; computed fields are filled by the builder.
type Layer struct {
	Name   string
	Kind   Kind
	Inputs []string // names of producer layers, in order

	// Configuration.
	KH, KW     int            // kernel/pool spatial size
	Stride     int            // spatial stride
	Pad        tensor.Padding // same/valid
	Filters    int            // conv output channels / dense units
	Activation Act            // fused activation
	Eps        float32        // batch/layer-norm epsilon
	PadT, PadB int            // explicit zero padding
	PadL, PadR int
	Heads      int // self-attention head count

	// Computed by the builder.
	OutShape   tensor.Shape // output shape (batch dim = 1 reference)
	ParamCount int64        // trainable parameter count
	FLOPs      int64        // multiply-add ×2 estimate for one input
}

// Model is a directed acyclic graph of layers in topological order
// (every layer's inputs precede it). Layers[0] is always the input layer.
type Model struct {
	Name       string
	InputShape tensor.Shape // per-example shape, leading batch dim of 1
	Layers     []*Layer

	index map[string]int // layer name → position
}

// NumLayers returns the total number of layers (Y in the paper),
// excluding the synthetic input layer.
func (m *Model) NumLayers() int { return len(m.Layers) - 1 }

// Layer returns the layer with the given name, or nil.
func (m *Model) Layer(name string) *Layer {
	if i, ok := m.index[name]; ok {
		return m.Layers[i]
	}
	return nil
}

// Output returns the final layer (the model's prediction output).
func (m *Model) Output() *Layer { return m.Layers[len(m.Layers)-1] }

// TotalParams sums trainable parameters over all layers.
func (m *Model) TotalParams() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.ParamCount
	}
	return n
}

// TotalFLOPs sums the per-example FLOP estimate over all layers.
func (m *Model) TotalFLOPs() int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.FLOPs
	}
	return n
}

// WeightBytes returns the size of the model's parameters at 4 bytes per
// float32 parameter — the paper's "model size" (e.g. ResNet50:
// 25,636,712 × 4 ≈ 98 MB).
func (m *Model) WeightBytes() int64 { return m.TotalParams() * 4 }

// Validate checks structural invariants: unique names, inputs resolve to
// earlier layers, arities match layer kinds.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model %q has no layers", m.Name)
	}
	if m.Layers[0].Kind != KindInput {
		return fmt.Errorf("nn: model %q must start with an input layer", m.Name)
	}
	seen := make(map[string]int, len(m.Layers))
	for i, l := range m.Layers {
		if l.Name == "" {
			return fmt.Errorf("nn: layer %d has empty name", i)
		}
		if j, dup := seen[l.Name]; dup {
			return fmt.Errorf("nn: duplicate layer name %q at %d and %d", l.Name, j, i)
		}
		seen[l.Name] = i
		switch l.Kind {
		case KindInput:
			if len(l.Inputs) != 0 {
				return fmt.Errorf("nn: input layer %q must have no inputs", l.Name)
			}
			if i != 0 {
				return fmt.Errorf("nn: input layer %q must be first", l.Name)
			}
		case KindAdd, KindConcat:
			if len(l.Inputs) < 2 {
				return fmt.Errorf("nn: layer %q (%v) needs ≥2 inputs, has %d", l.Name, l.Kind, len(l.Inputs))
			}
		default:
			if len(l.Inputs) != 1 {
				return fmt.Errorf("nn: layer %q (%v) needs exactly 1 input, has %d", l.Name, l.Kind, len(l.Inputs))
			}
		}
		for _, in := range l.Inputs {
			j, ok := seen[in]
			if !ok {
				return fmt.Errorf("nn: layer %q references unknown or later layer %q", l.Name, in)
			}
			if j >= i {
				return fmt.Errorf("nn: layer %q references non-preceding layer %q", l.Name, in)
			}
		}
	}
	return nil
}

// ActivationBytes returns the byte size of a layer's output for one
// example (float32).
func (l *Layer) ActivationBytes() int64 {
	return int64(l.OutShape.Elems()) * 4
}
