package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/obs"
	"ampsinf/internal/perf"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
)

// perCall times batches of n calls of f for about 60 ms (two batches in
// quick mode) and returns the median wall-clock nanoseconds per call.
func (rc *runCtx) perCall(n int, f func()) float64 {
	minBatches, budget := 5, 60*time.Millisecond
	if rc.quick {
		minBatches, budget = 2, 0
	}
	var samples []float64
	for start := time.Now(); len(samples) < minBatches || time.Since(start) < budget; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// kernelNames are the ROADMAP's kernel shapes (all stride 1, same padding).
var kernelNames = []string{"conv3x3_56x56x64", "conv1x1_28x28x256", "depthwise3x3_112x112x32", "matmul_64x512x512"}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// kernelMetrics times each kernel shape, checks it against the naive
// float64 reference at 1e-4 of the reference's scale, and computes
// GFLOP/s from the operation count (2 per multiply-add; computed, not
// counted by hardware).
func kernelMetrics(rc *runCtx) error {
	rng := rand.New(rand.NewSource(subSeed(rc.seed, "kernels")))
	type kernel struct {
		run   func() *tensor.Tensor
		naive func() []float64
		flops float64
	}
	conv := func(h, w, cin, kh, kw, cout int, depthwise bool) kernel {
		in := randTensor(rng, 1, h, w, cin)
		kc := cout
		if depthwise {
			kc = 1
		}
		k := randTensor(rng, kh, kw, cin, kc)
		run := func() *tensor.Tensor { return tensor.Conv2D(in, k, nil, 1, tensor.Same) }
		macs := h * w * kh * kw * cin * cout
		if depthwise {
			run = func() *tensor.Tensor { return tensor.DepthwiseConv2D(in, k, nil, 1, tensor.Same) }
			macs = h * w * kh * kw * cin
		}
		return kernel{run, func() []float64 { return naiveConv(in.Data(), h, w, cin, k.Data(), kh, kw, cout, depthwise) }, 2 * float64(macs)}
	}
	a, b := randTensor(rng, 64, 512), randTensor(rng, 512, 512)
	kernels := []kernel{
		conv(56, 56, 64, 3, 3, 64, false),
		conv(28, 28, 256, 1, 1, 256, false),
		conv(112, 112, 32, 3, 3, 32, true),
		{func() *tensor.Tensor { return tensor.MatMul(a, b) }, func() []float64 { return naiveMatMul(a.Data(), b.Data(), 64, 512, 512) }, 2 * 64 * 512 * 512},
	}
	for i, k := range kernels {
		name := kernelNames[i]
		rc.attempted++
		if err := closeTo(k.run().Data(), k.naive(), 1e-4); err != nil {
			rc.fail("kernel %s against the naive reference: %v", name, err)
		}
		id := rc.rec.begin("tensor." + name)
		ns := rc.perCall(1, func() { k.run() })
		rc.rec.end(id)
		rc.layer.set("tensor."+name+"_ms", ns/1e6)
		rc.layer.set("tensor."+name+"_gflops", k.flops/ns)
	}
	return nil
}

// stormMicro holds the call-shape microbenchmarks of the storm path
// (ROADMAP performance-ledger item (a)): nanoseconds per call of each
// leaf layer at the shape the storm calls it, measured alone. The
// lambda and s3 figures are taken with no telemetry and no injector
// attached and with the billing calls they make subtracted, so that the
// ledger's leaves do not overlap.
type stormMicro struct {
	heapPushPop, slabAllocFree, poissonNext float64
	invokeWarm, billingAdd                  float64
	invokeDraw, storeDraw                   float64
	put, get                                float64
	counterHandle, seriesHistHandle         float64
	// charges one warm invoke, one put and one get make on the meter.
	invokeCharges, putCharges, getCharges float64
}

// chargeCounter is the counting billing.Observer.
type chargeCounter struct{ n int64 }

func (c *chargeCounter) observe(string, float64) { c.n++ }

func runStormMicro(rc *runCtx, spec *stormSpec, in *stormInputs) (*stormMicro, error) {
	id := rc.rec.begin("microbench")
	defer rc.rec.end(id)
	m := &stormMicro{}
	// measure times f, reports it under name and returns the ns per call.
	measure := func(name string, n int, f func()) float64 {
		ns := rc.perCall(n, f)
		rc.layer.set(name, ns)
		return ns
	}

	// sim: a heap at backlog depth 4096 and a slab of as many records,
	// in the pop-free-alloc-push cycle the scheduler runs per event.
	var h sim.Heap
	var slab sim.Slab[[6]int64]
	for i := 0; i < 4096; i++ {
		sid, _ := slab.Alloc()
		h.Push(sim.Event{At: time.Duration(i), Seq: uint64(i), ID: sid})
	}
	seq := uint64(4096)
	m.heapPushPop = measure("sim.heap_pushpop_ns", 20000, func() {
		e, _ := h.Pop()
		e.At += 4096
		e.Seq = seq
		seq++
		h.Push(e)
	})
	m.slabAllocFree = measure("sim.slab_allocfree_ns", 20000, func() {
		sid, _ := slab.Alloc()
		slab.Free(sid)
	})
	src := sim.NewPoisson(math.MaxInt32, spec.rate, subSeed(rc.seed, "micro-arrivals"))
	m.poissonNext = measure("sim.poisson_next_ns", 20000, func() { src.Next() })

	// billing: one charge on a meter with the counting observer off.
	meter := &billing.Meter{}
	m.billingAdd = measure("billing.add_ns", 20000, func() { meter.Add("lambda:execution", 1e-7) })

	// lambda: clocked platform, one warm container, no-op handler.
	var charges chargeCounter
	lm := &billing.Meter{}
	lm.SetObserver(charges.observe)
	pl := lambda.New(lm, perf.Default())
	pl.EnableClock()
	err := pl.CreateFunction(lambda.FunctionConfig{
		Name: "noop", MemoryMB: 1024, PackageBytes: 1 << 20,
		Handler: func(*lambda.Context, []byte) ([]byte, error) { return nil, nil },
	})
	if err != nil {
		return nil, err
	}
	now := time.Duration(0)
	invoke := func() {
		now += time.Second
		pl.AdvanceTo(now)
		res, ierr := pl.Invoke("noop", nil, lambda.InvokeOptions{})
		if ierr != nil {
			err = ierr
		}
		pl.RecycleResult(res)
	}
	invoke() // cold start
	charges.n = 0
	var invokes int
	m.invokeWarm = measure("lambda.invoke_warm_ns", 5000, func() { invoke(); invokes++ })
	if err != nil {
		return nil, fmt.Errorf("lambda microbench: %w", err)
	}
	m.invokeCharges = float64(charges.n) / float64(invokes)

	// faults: the draws the platform and the store make, at the chaos
	// storm's rates (a storm without an injector makes none).
	inj := faults.New(spec.faultConfig(rc.seed))
	at := time.Duration(0)
	m.invokeDraw = measure("faults.invoke_draw_ns", 20000, func() { at += time.Millisecond; inj.InvokeFaultAt("noop", at) })
	m.storeDraw = measure("faults.store_draw_ns", 20000, func() { at += time.Millisecond; inj.StoreFaultAt("get", "k", at) })

	// s3: the two calls the lean path makes, at the storm's activation size.
	charges.n = 0
	store := s3.New(s3.DefaultConfig(), lm)
	act := modelfmt.EncodeTensor(in.image)
	var puts, gets int
	m.put = measure("s3.put_ns", 5000, func() { _, err = store.PutStable("ampsinf/jobs/linearnet/1/out0", act); puts++ })
	m.putCharges = float64(charges.n) / float64(puts)
	charges.n = 0
	m.get = measure("s3.get_ns", 5000, func() { _, _, err = store.GetSize("ampsinf/jobs/linearnet/1/out0"); gets++ })
	m.getCharges = float64(charges.n) / float64(gets)
	if err != nil {
		return nil, fmt.Errorf("s3 microbench: %w", err)
	}

	// obs: one pre-resolved counter write, one windowed histogram write.
	mx := obs.NewMetrics()
	ts := obs.NewTimeSeries(time.Second)
	ch := mx.CounterHandle("bench_counter_total")
	hh := ts.HistHandle("bench_latency_seconds")
	m.counterHandle = measure("obs.counter_handle_ns", 20000, func() { ch.Inc(1) })
	var obsAt time.Duration
	m.seriesHistHandle = measure("obs.series_hist_handle_ns", 20000, func() {
		obsAt += 10 * time.Millisecond // the steady storm's 100 writes per window
		ts.Advance(obsAt)
		hh.Observe(obsAt, 0.25)
	})
	ts.Close()

	// coordinator: one job on a warm one-partition deployment, on the
	// lean scratch and on the retained span-tree path with a tracer.
	leanNs, err := coordinatorJobNs(rc, spec, in, true)
	if err != nil {
		return nil, err
	}
	spanNs, err := coordinatorJobNs(rc, spec, in, false)
	if err != nil {
		return nil, err
	}
	deployMs := rc.perCall(1, func() {
		var env *stormEnv
		if env, err = newStormEnv(spec, in, rc.seed, nil); err == nil {
			env.dep.Teardown()
		}
	}) / 1e6
	if err != nil {
		return nil, err
	}

	rc.layer.set("coordinator.lean_job_ns", leanNs)
	rc.layer.set("coordinator.span_job_ns", spanNs)
	rc.layer.set("coordinator.deploy_linearnet_ms", deployMs)
	return m, nil
}

// coordinatorJobNs times Deployment.Run on a fault-free, telemetry-free
// copy of the storm's deployment, one warm job per simulated second.
func coordinatorJobNs(rc *runCtx, spec *stormSpec, in *stormInputs, lean bool) (float64, error) {
	meter := &billing.Meter{}
	pl := lambda.New(meter, perf.Default())
	cfg := coordinator.Config{Platform: pl, Store: s3.New(s3.DefaultConfig(), meter), SkipCompute: true}
	if !lean {
		cfg.Tracer = obs.NewTracer()
		meter.SetObserver(cfg.Tracer.RecordCost)
	}
	dep, err := coordinator.Deploy(cfg, in.model, in.weights, in.plan)
	if err != nil {
		return 0, err
	}
	defer dep.Teardown()
	pl.EnableClock()
	now := time.Duration(0)
	n := 2000
	if !lean {
		n = 200 // the tracer keeps every job's span tree
	}
	ns := rc.perCall(n, func() {
		now += time.Minute
		pl.AdvanceTo(now)
		rep, rerr := dep.Run(in.image, coordinator.RunOptions{Lean: lean})
		if rerr != nil {
			err = rerr
		}
		if lean {
			dep.ReleaseReport(rep)
		}
	})
	return ns, err
}

// scrapeCosts times a metrics snapshot and its Prometheus rendering on
// the registry a storm unit just filled.
func scrapeCosts(rc *runCtx, mx *obs.Metrics) error {
	var err error
	rc.layer.set("obs.snapshot_us", rc.perCall(20, func() { mx.Snapshot() })/1e3)
	snap := mx.Snapshot()
	rc.layer.set("obs.prometheus_write_us", rc.perCall(20, func() { err = obs.WritePrometheus(io.Discard, snap) })/1e3)
	return err
}
