package core

import (
	"fmt"
	"strings"
	"testing"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// VGG16 (528 MB of weights; fc1 alone ≈392 MB) cannot be deployed under
// the 2020 limits with float32 weights — and becomes servable with 4-bit
// quantization, the paper's future-work answer to outsized layers.
func TestVGG16ServableOnlyWithQuantization(t *testing.T) {
	m := zoo.VGG16(0)
	w := nn.InitWeights(m, 1)
	fw := NewFramework(Options{})

	if _, err := fw.Submit(m, w, SubmitOptions{SkipCompute: true}); err == nil {
		t.Fatal("float32 VGG16 deployed under the 250 MB limit")
	}
	if _, err := fw.Submit(m, w, SubmitOptions{SkipCompute: true, QuantizeBits: 8}); err == nil {
		t.Fatal("8-bit VGG16 should still exceed the limit (fc1 ≈ 98 MB + 169 MB deps + overhead)")
	}
	svc, err := fw.Submit(m, w, SubmitOptions{SkipCompute: true, QuantizeBits: 4})
	if err != nil {
		t.Fatalf("4-bit VGG16 not servable: %v", err)
	}
	defer svc.Close()
	// At 4 bits the whole 528 MB model compresses to ≈77 MB, which just
	// fits a single function next to the 169 MB dependency layer.
	if svc.Partitions() < 1 {
		t.Fatalf("VGG16 deployed on %d partitions", svc.Partitions())
	}
	if _, err := svc.Infer(randomInput(m, 3)); err != nil {
		t.Fatalf("quantized VGG16 serving failed: %v", err)
	}
}

// A quantized deployment must produce exactly the prediction of a direct
// forward pass through the dequantized weights, and nearly the float
// model's prediction.
func TestQuantizedPipelineCorrectness(t *testing.T) {
	m := zoo.TinyCNN(0)
	w := nn.InitWeights(m, 3)
	fw := NewFramework(Options{})
	svc, err := fw.Submit(m, w, SubmitOptions{QuantizeBits: 8, MaxLayersPerPartition: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Partitions() < 2 {
		t.Fatal("expected a multi-partition quantized deployment")
	}

	in := randomInput(m, 21)
	rep, err := svc.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := modelfmt.EncodeWeights(m, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	qw, err := modelfmt.DecodeWeights(m, blob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(qw, in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, rep.Output, 0) {
		t.Fatalf("quantized pipeline differs from dequantized forward by %v",
			tensor.MaxAbsDiff(want, rep.Output))
	}
	float, _ := m.Forward(w, in)
	if d := tensor.MaxAbsDiff(float, rep.Output); d > 0.15 {
		t.Fatalf("8-bit serving drifted %v from the float model", d)
	}
}

// Quantization shrinks what ships, so cold-start weight loading gets
// faster and cheaper.
func TestQuantizationReducesLoadTime(t *testing.T) {
	m := zoo.MobileNet(0)
	w := nn.InitWeights(m, 5)

	run := func(bits int) (load float64) {
		fw := NewFramework(Options{})
		svc, err := fw.Submit(m, w, SubmitOptions{SkipCompute: true, QuantizeBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		rep, err := svc.Infer(randomInput(m, 1))
		if err != nil {
			t.Fatal(err)
		}
		l, _ := Breakdown(rep)
		return l.Seconds()
	}
	floatLoad := run(0)
	q8Load := run(8)
	if q8Load >= floatLoad*0.5 {
		t.Fatalf("8-bit load %.2fs not ≪ float load %.2fs", q8Load, floatLoad)
	}
}

// Under the December 2020 quota update (10,240 MB, 1 MB steps) the
// platform accepts allocations the 2020 quota rejects, and a tight SLO
// lets the optimizer reach past 3008 MB.
func TestQuota2021Extension(t *testing.T) {
	meter := &billing.Meter{}
	p := perf.Default()
	pl2021 := lambda.NewWithQuota(meter, p, pricing.Quota2021())
	if err := pl2021.CreateFunction(lambda.FunctionConfig{
		Name: "big", MemoryMB: 5001, Handler: func(ctx *lambda.Context, b []byte) ([]byte, error) { return b, nil },
	}); err != nil {
		t.Fatalf("2021 quota rejected 5001 MB: %v", err)
	}
	pl2020 := lambda.New(meter, p)
	if err := pl2020.CreateFunction(lambda.FunctionConfig{
		Name: "big", MemoryMB: 5001, Handler: func(ctx *lambda.Context, b []byte) ([]byte, error) { return b, nil },
	}); err == nil {
		t.Fatal("2020 quota accepted 5001 MB")
	}

	// End-to-end through the framework: the 2021 platform still serves.
	fw := NewFramework(Options{Platform: pl2021, Meter: meter})
	m := zoo.TinyCNN(0)
	svc, err := fw.Submit(m, nn.InitWeights(m, 1), SubmitOptions{SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, err := svc.Infer(randomInput(m, 2)); err != nil {
		t.Fatal(err)
	}
	for _, mem := range svc.Plan.Memories() {
		if !pricing.Quota2021().ValidMemory(mem) {
			t.Fatalf("plan memory %d invalid under 2021 quota", mem)
		}
	}
}

func TestSubmitRejectsBadQuantBits(t *testing.T) {
	m := zoo.TinyCNN(0)
	fw := NewFramework(Options{})
	if _, err := fw.Submit(m, nn.InitWeights(m, 1), SubmitOptions{QuantizeBits: 3}); err == nil {
		t.Fatal("3-bit quantization accepted")
	}
	// Either width is refused before planning; a negative fallback width
	// is not read as "no fallback".
	for _, opts := range []SubmitOptions{{QuantizeBits: -4}, {FallbackBits: -4}, {FallbackBits: 3}} {
		_, err := fw.Submit(m, nn.InitWeights(m, 1), opts)
		if err == nil || !strings.HasPrefix(err.Error(), "core: ") || strings.Contains(err.Error(), "optimizing") ||
			!strings.Contains(err.Error(), fmt.Sprintf("width %d", opts.QuantizeBits+opts.FallbackBits)) {
			t.Errorf("%+v: got %v, want core's width error before planning", opts, err)
		}
	}
	if fns := fw.Platform().Functions(); len(fns) != 0 {
		t.Errorf("rejected submissions left functions deployed: %v", fns)
	}
}

// BERT-Base's encoder stack (≈324 MB) is the paper's "advanced models
// keep growing" concern: it cannot fit one function but partitions
// cleanly at encoder-block boundaries.
func TestBERTBaseServedPartitioned(t *testing.T) {
	m, err := zoo.Build("bertbase", 0)
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 1)
	fw := NewFramework(Options{})
	svc, err := fw.Submit(m, w, SubmitOptions{SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Partitions() < 5 {
		t.Fatalf("bertbase served with %d partitions; 324 MB needs ≥5 under the 80 MB-per-partition budget", svc.Partitions())
	}
	in := tensor.New(m.InputShape...)
	rep, err := svc.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completion <= 0 || rep.Cost <= 0 {
		t.Fatal("degenerate bert report")
	}
}

// A real (computing) transformer pipeline must be bit-identical to the
// direct forward pass, like the CNNs.
func TestTinyTransformerPipelineCorrectness(t *testing.T) {
	m, err := zoo.Build("tinytransformer", 0)
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 2)
	fw := NewFramework(Options{})
	svc, err := fw.Submit(m, w, SubmitOptions{MaxLayersPerPartition: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Partitions() < 2 {
		t.Fatalf("expected multi-partition transformer, got %d", svc.Partitions())
	}
	in := randomInput(m, 31)
	rep, err := svc.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Forward(w, in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, rep.Output, 0) {
		t.Fatalf("transformer pipeline differs by %v", tensor.MaxAbsDiff(want, rep.Output))
	}
}
