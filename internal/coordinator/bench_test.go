package coordinator

import (
	"testing"
	"time"

	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
)

// BenchmarkPipelineJob measures the wall-clock overhead of one multi-
// partition serverless job end to end: payload construction, S3 staging,
// tensor codecs, real forward passes and billing.
func BenchmarkPipelineJob(b *testing.B) {
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := nn.InitWeights(m, 1)
	e := newEnv()
	d, err := Deploy(e.config(), m, w, plan)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Teardown()
	in := randomInput(m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(in, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeploy measures split+package+create for a real large model.
func BenchmarkDeployResNet50(b *testing.B) {
	m := zoo.ResNet50(0)
	plan, err := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default()})
	if err != nil {
		b.Fatal(err)
	}
	w := nn.InitWeights(m, 1)
	b.SetBytes(m.WeightBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEnv()
		d, err := Deploy(e.config(), m, w, plan)
		if err != nil {
			b.Fatal(err)
		}
		d.Teardown()
	}
}

// BenchmarkHedgeDelay measures the per-attempt hedge-delay derivation on
// a full latency history: one percentile read and one jitter draw.
func BenchmarkHedgeDelay(b *testing.B) {
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := newEnv().config()
	cfg.Hedge = HedgePolicy{Percentile: 95, Delay: 2 * time.Second}
	d, err := Deploy(cfg, m, nn.InitWeights(m, 1), plan)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Teardown()
	p := d.parts[0]
	for i := 0; i < 2*latencyHistorySize; i++ {
		d.recordLatency(p, time.Duration(i*7919%1000)*time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += d.hedgeDelay(p)
	}
	if sink == 0 {
		b.Fatal("no hedge delay derived")
	}
}
