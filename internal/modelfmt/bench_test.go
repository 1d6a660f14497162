package modelfmt

import (
	"testing"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/tensor"
)

func BenchmarkEncodeWeightsMobileNet(b *testing.B) {
	m := zoo.MobileNet(0)
	w := nn.InitWeights(m, 1)
	b.SetBytes(m.WeightBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeWeights(m, w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeWeightsMobileNet(b *testing.B) {
	m := zoo.MobileNet(0)
	w := nn.InitWeights(m, 1)
	blob, err := EncodeWeights(m, w, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeWeights(m, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeTensorActivation(b *testing.B) {
	t := tensor.New(10, 28, 28, 256) // a typical staged intermediate
	b.SetBytes(int64(t.Elems()) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeTensor(t)
	}
}

func BenchmarkDecodeTensorActivation(b *testing.B) {
	blob := EncodeTensor(tensor.New(10, 28, 28, 256))
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTensor(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitWeightsResNet50(b *testing.B) {
	m := zoo.ResNet50(0)
	w := nn.InitWeights(m, 1)
	segs := m.Segments()
	mid := segs[len(segs)/2].Lo
	bounds := []int{1, mid, len(m.Layers)}
	b.SetBytes(m.WeightBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitWeights(m, w, bounds); err != nil {
			b.Fatal(err)
		}
	}
}
