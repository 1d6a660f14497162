package nn_test

import (
	"testing"
	"time"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/workload"
)

// BenchmarkForwardByKind runs one 160 px image through the models the
// benchmark's cold_infer serves, layer by layer through the package's
// own eval, and reports per layer kind the milliseconds a forward pass
// spends in it and its rate in GFLOP/s by the layers' FLOP estimate. A
// fused activation counts to the layer it follows. Nothing asserts a
// time: run it with -bench ForwardByKind and read the table. It is an
// external test because the zoo imports nn; export_test.go lends it the
// timed loop.
func BenchmarkForwardByKind(b *testing.B) {
	for _, name := range []string{"mobilenet", "resnet50", "inceptionv3"} {
		b.Run(name, func(b *testing.B) {
			m, err := zoo.Build(name, 160)
			if err != nil {
				b.Fatal(err)
			}
			w := nn.InitWeights(m, 1)
			img := workload.Image(m, 1)
			flops := map[nn.Kind]int64{}
			for _, l := range m.Layers {
				flops[l.Kind] += l.FLOPs
			}
			spent := map[nn.Kind]time.Duration{}
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ForwardTimed(w, img, func(l *nn.Layer, d time.Duration) {
					spent[l.Kind] += d
					total += d
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(total.Seconds()*1e3/float64(b.N), "forward_ms")
			for kind, d := range spent {
				ms := d.Seconds() * 1e3 / float64(b.N)
				b.ReportMetric(ms, kind.String()+"_ms")
				if flops[kind] > 0 && ms > 0 {
					b.ReportMetric(float64(flops[kind])/(ms*1e6), kind.String()+"_GFLOP/s")
				}
			}
		})
	}
}
