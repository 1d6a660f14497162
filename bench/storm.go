package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/cloud/stage"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/serving"
	"ampsinf/internal/sim"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

// stormSpec describes one storm workload. Inside a unit the traffic is
// open-loop Poisson on the simulated clock; on the host one client
// runs one unit at a time.
type stormSpec struct {
	name      string
	requests  int
	rate      float64 // simulated requests per second
	maxLayers int     // MaxLayersPerPartition: 16 → 1 partition, 3 → 3
	chaos     bool    // pipelined+batched scheduler under faults, scraped
}

var (
	stormSteady = stormSpec{name: "storm_steady", requests: 250_000, rate: 100, maxLayers: 16}
	stormChaos  = stormSpec{name: "storm_chaos", requests: 100_000, rate: 1, maxLayers: 3, chaos: true}
)

// faultConfig is the chaos storm's injector: 5% uniform faults, and
// every 20 simulated seconds on average a 4 s burst at six times that.
func (s *stormSpec) faultConfig(seed int64) faults.Config {
	cfg := faults.Uniform(0.05, subSeed(seed, "faults"))
	cfg.BurstEvery, cfg.BurstLength, cfg.BurstFactor = 20*time.Second, 4*time.Second, 6
	return cfg
}

// stormInputs is what setup builds once and every unit deploys afresh.
type stormInputs struct {
	model   *nn.Model
	weights nn.Weights
	plan    *optimizer.Plan
	image   *tensor.Tensor
}

// setupStorm builds the model, plan, weights and image, and serves a
// tenth-size warm-up storm on a first deployment — so work moved from
// serving into Deploy shows in setup_s, and set-up is long enough (tens
// of milliseconds) to be timed.
func setupStorm(spec *stormSpec, seed int64, requests int) (*stormInputs, error) {
	m := zoo.LinearNet(8)
	plan, err := optimizer.Optimize(optimizer.Request{Model: m, Perf: perf.Default(), MaxLayersPerPartition: spec.maxLayers})
	if err != nil {
		return nil, err
	}
	in := &stormInputs{model: m, weights: nn.InitWeights(m, weightSeed), plan: plan, image: workload.Image(m, subSeed(seed, "image"))}
	if _, err := serveUnit(spec, in, seed, requests/10, nil, false); err != nil {
		return nil, err
	}
	return in, nil
}

// timedStore is the timing decorator around the staging store. It
// forwards the optional Sizer and StablePutter extensions too, so the
// lean path takes the same calls it takes on a bare *s3.Store.
type timedStore struct {
	inner interface {
		stage.Store
		stage.Sizer
		stage.StablePutter
	}
	busy       time.Duration
	puts, gets int64
}

func (t *timedStore) Put(key string, data []byte) (time.Duration, error) {
	t0 := time.Now()
	d, err := t.inner.Put(key, data)
	t.busy += time.Since(t0)
	t.puts++
	return d, err
}

func (t *timedStore) PutStable(key string, data []byte) (time.Duration, error) {
	t0 := time.Now()
	d, err := t.inner.PutStable(key, data)
	t.busy += time.Since(t0)
	t.puts++
	return d, err
}

func (t *timedStore) Get(key string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	b, d, err := t.inner.Get(key)
	t.busy += time.Since(t0)
	t.gets++
	return b, d, err
}

func (t *timedStore) GetSize(key string) (int64, time.Duration, error) {
	t0 := time.Now()
	n, d, err := t.inner.GetSize(key)
	t.busy += time.Since(t0)
	t.gets++
	return n, d, err
}

func (t *timedStore) Head(key string) (int64, bool) { return t.inner.Head(key) }
func (t *timedStore) Delete(key string)             { t.inner.Delete(key) }
func (t *timedStore) ChargeStorage(bytes int64, d time.Duration) {
	t.inner.ChargeStorage(bytes, d)
}

// stormEnv is one unit's private cloud: nothing in it outlives the unit.
type stormEnv struct {
	meter   *billing.Meter
	pl      *lambda.Platform
	s3      *s3.Store
	timed   *timedStore // nil in the untraced pass
	inj     *faults.Injector
	dep     *coordinator.Deployment
	mx      *obs.Metrics
	ts      *obs.TimeSeries
	charges chargeCounter
	// counter increments and histogram observations the subscriber saw
	seriesCounterWrites, seriesHistWrites int64
	cfg                                   serving.Config
}

// newStormEnv builds a fresh meter, platform, store, injector,
// telemetry and deployment. With rec set it also injects what the
// public API allows: the store decorator, a counting meter observer and
// a series subscriber.
func newStormEnv(spec *stormSpec, in *stormInputs, seed int64, rec *recorder) (*stormEnv, error) {
	e := &stormEnv{meter: &billing.Meter{}, mx: obs.NewMetrics(), ts: obs.NewTimeSeries(time.Second)}
	e.pl = lambda.New(e.meter, perf.Default())
	e.s3 = s3.New(s3.DefaultConfig(), e.meter)
	var store stage.Store = e.s3
	if rec != nil {
		e.timed = &timedStore{inner: e.s3}
		store = e.timed
		e.meter.SetObserver(e.charges.observe)
		e.ts.Subscribe(func(f *obs.WindowFrame) {
			e.seriesCounterWrites += countWrites(f.Counters)
			for _, h := range f.Hists {
				e.seriesHistWrites += h.Count
			}
		})
	}
	e.pl.SetMetrics(e.mx)
	e.pl.SetSeries(e.ts)
	e.s3.SetMetrics(e.mx)
	e.pl.SetAccountConcurrency(256)
	dcfg := coordinator.Config{Platform: e.pl, Store: store, SkipCompute: true, Metrics: e.mx, Series: e.ts}
	e.cfg = serving.Config{
		Throttle: serving.ThrottlePolicy{MaxAttempts: 500, JitterSeed: subSeed(seed, "throttle")},
		Metrics:  e.mx, Series: e.ts,
	}
	if spec.chaos {
		e.inj = faults.New(spec.faultConfig(seed))
		e.pl.SetInjector(e.inj)
		e.s3.SetInjector(e.inj)
		e.inj.SetClock(e.pl.Now)
		dcfg.Retry = coordinator.DefaultRetryPolicy()
		dcfg.Retry.MaxAttempts, dcfg.Retry.JitterSeed = 5, subSeed(seed, "retry")
		dcfg.Hedge = coordinator.HedgePolicy{Percentile: 95, Delay: 2 * time.Second, JitterSeed: subSeed(seed, "hedge")}
		dcfg.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: 8}
		dcfg.Budget = coordinator.BudgetPolicy{MaxTokens: 64, EarnPerSuccess: 0.25}
		e.cfg.Pipeline = serving.PipelinePolicy{Depth: 8}
		e.cfg.Batch = serving.BatchPolicy{MaxBatch: 4, Window: 200 * time.Millisecond, JitterSeed: subSeed(seed, "batch")}
		e.cfg.SLO = serving.SLOPolicy{Deadline: 60 * time.Second, Shed: true, TolerateFailures: true}
	}
	var err error
	id := rec.begin("coordinator.Deploy")
	e.dep, err = coordinator.Deploy(dcfg, in.model, in.weights, in.plan)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	e.cfg.Deployment = e.dep
	return e, nil
}

// countWrites estimates how many increments produced these counters:
// event counters move by one per write, so their values are write
// counts; byte counters move by a payload size and are left out.
func countWrites(counters map[string]int64) (n int64) {
	for name, c := range counters {
		if !strings.Contains(name, "bytes") {
			n += c
		}
	}
	return n
}

// scraper renders the registry as a Prometheus exposition at 20 Hz of
// host time beside the serving loop — the second goroutine of the chaos
// storm, standing for an attached HTTP scraper.
type scraper struct {
	stop chan struct{}
	wg   sync.WaitGroup
	us   []float64
	err  error
}

func startScraper(mx *obs.Metrics) *scraper {
	s := &scraper{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t0 := time.Now()
				if err := obs.WritePrometheus(io.Discard, mx.Snapshot()); err != nil {
					s.err = err
				}
				s.us = append(s.us, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
	}()
	return s
}

// finish stops the scraper and waits for it.
func (s *scraper) finish() {
	close(s.stop)
	s.wg.Wait()
}

// stormUnit is what one served storm yields.
type stormUnit struct {
	seconds           float64
	allocB, mallocs   float64
	rep               *serving.Report
	meterTotal        float64
	frames            int
	puts, gets, fired int64
	charges           int64
	seriesWrites      [2]int64 // counter increments, histogram observations
	storeBusy         time.Duration
	scrapesUS         []float64
	mx                *obs.Metrics
	digest, ndjsonSHA string
}

// serveUnit deploys afresh (untimed), times one ServeStream call, and
// digests everything simulated that came out of it: the report, the
// meter total and the folded series. Rendering the chaos storm's ~80k
// frames as NDJSON takes as long as serving them, so only the unit asked
// to (the first of a pass) also hashes the rendered stream.
func serveUnit(spec *stormSpec, in *stormInputs, seed int64, requests int, rec *recorder, ndjson bool) (*stormUnit, error) {
	uid := rec.begin("unit")
	defer rec.end(uid)
	env, err := newStormEnv(spec, in, seed, rec)
	if err != nil {
		return nil, err
	}
	src := sim.NewPoisson(requests, spec.rate, subSeed(seed, "arrivals"))
	input := func(int) *tensor.Tensor { return in.image }
	var sc *scraper
	if spec.chaos {
		sc = startScraper(env.mx)
	}
	// Start every unit from a collected heap: the previous unit's
	// frames and digest buffers are garbage by now, and whether their
	// sweep lands inside this unit's timed call should not be luck.
	runtime.GC()
	var m0, m1 memCounters
	m0.read()
	sid := rec.begin("serving.ServeStream")
	t0 := time.Now()
	rep, err := serving.ServeStream(env.cfg, src, input)
	elapsed := time.Since(t0)
	if env.timed != nil {
		rec.aggregate("s3.Store", env.timed.busy, env.timed.puts+env.timed.gets)
	}
	rec.end(sid)
	m1.read()
	if sc != nil {
		sc.finish()
		if err == nil {
			err = sc.err
		}
	}
	id := rec.begin("coordinator.Teardown")
	env.dep.Teardown()
	rec.end(id)
	if err != nil {
		return nil, err
	}
	env.ts.Close()
	frames := env.ts.Frames()
	u := &stormUnit{
		seconds: elapsed.Seconds(), allocB: float64(m1.totalAlloc - m0.totalAlloc), mallocs: float64(m1.mallocs - m0.mallocs),
		rep: rep, meterTotal: env.meter.Total(), mx: env.mx, frames: len(frames),
		fired: env.inj.Total(), charges: env.charges.n,
		seriesWrites: [2]int64{env.seriesCounterWrites, env.seriesHistWrites},
	}
	u.puts, u.gets = env.s3.Stats()
	if env.timed != nil {
		u.storeBusy = env.timed.busy
	}
	if sc != nil {
		u.scrapesUS = sc.us
	}
	id = rec.begin("digest")
	u.digest = hashParts(fmt.Sprintf("%+v", *rep), fmt.Sprintf("%.17g", u.meterTotal), foldFrames(frames))
	if ndjson {
		var series bytes.Buffer
		if err := env.ts.WriteNDJSON(&series); err != nil {
			return nil, err
		}
		u.ndjsonSHA = hashParts(series.String())
	}
	rec.end(id)
	return u, nil
}

// foldFrames digests the flushed series without rendering it. A frame
// folds to the sum of its entries' hashes — a map has no order to
// respect — and the frames are hashed in window order.
func foldFrames(frames []*obs.WindowFrame) string {
	entry := func(name string, bits ...uint64) uint64 {
		h := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * 1099511628211
		}
		for _, b := range bits {
			h = (h ^ b) * 1099511628211
		}
		return h ^ h>>29
	}
	sum := sha256.New()
	var buf [16]byte
	for _, f := range frames {
		var fold uint64
		for n, v := range f.Counters {
			fold += entry(n, uint64(v))
		}
		for n, v := range f.Totals {
			fold += entry(n, math.Float64bits(v))
		}
		for n, v := range f.Gauges {
			fold += entry(n, math.Float64bits(v))
		}
		for n, h := range f.Hists {
			fold += entry(n, uint64(h.Count), math.Float64bits(h.Sum), math.Float64bits(h.Min), math.Float64bits(h.Max),
				math.Float64bits(h.P50), math.Float64bits(h.P95), math.Float64bits(h.P99), uint64(len(h.Buckets)))
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(f.Index))
		binary.LittleEndian.PutUint64(buf[8:], fold)
		sum.Write(buf[:])
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// checkStorm is the closure check: every request has exactly one
// outcome, and the report's spend is positive and within the meter's.
func checkStorm(u *stormUnit, requests int) error {
	r := u.rep
	if got := r.Completed + r.Shed + r.Deadline + r.Throttled + r.Failed + r.BudgetExhausted; r.Requests != requests || got != requests {
		return fmt.Errorf("outcomes sum to %d of %d requests (report says %d)", got, requests, r.Requests)
	}
	if !(r.TotalCost > 0 && r.TotalCost <= u.meterTotal*(1+1e-12)) {
		return fmt.Errorf("report cost %v against meter total %v", r.TotalCost, u.meterTotal)
	}
	if r.Good > r.Completed {
		return fmt.Errorf("good %d exceeds completed %d", r.Good, r.Completed)
	}
	return nil
}

// negativeFields counts the report's numeric fields below zero.
func negativeFields(r *serving.Report) (n int, names []string) {
	v := reflect.ValueOf(*r)
	for i := 0; i < v.NumField(); i++ {
		neg := false
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			neg = f.Int() < 0
		case reflect.Float64:
			neg = f.Float() < 0
		}
		if neg {
			n++
			names = append(names, v.Type().Field(i).Name)
		}
	}
	return n, names
}

// runStorm serves units until the budget is spent. With tracing on it
// first runs the microbenchmarks, then alternates untraced and traced
// units; the traced ones carry the decorator, observer and subscriber.
func runStorm(rc *runCtx, spec *stormSpec) error {
	requests := spec.requests
	if rc.quick {
		requests = 2000
	}
	var in *stormInputs
	if err := rc.setup(7, func() (err error) { in, err = setupStorm(spec, rc.seed, requests); return }); err != nil {
		return err
	}
	var micro *stormMicro
	if rc.trace {
		var err error
		if micro, err = runStormMicro(rc, spec, in); err != nil {
			return err
		}
	}
	var plain, traced []*stormUnit
	var digest digestCheck
	start := time.Now()
	for unit := 0; rc.more(start, unit, 2); unit++ {
		rec := (*recorder)(nil)
		if rc.trace && unit%2 == 1 {
			rec = rc.rec
		}
		rec.setUnit(unit)
		rc.attempted += requests
		u, err := serveUnit(spec, in, rc.seed, requests, rec, unit == 0)
		if err == nil {
			err = checkStorm(u, requests)
		}
		if err != nil {
			rc.failOps(requests, "%s unit %d: %v", spec.name, unit, err)
			continue
		}
		digest.add(rc, unit, "storm", u.digest)
		if rec == nil {
			plain = append(plain, u)
		} else {
			traced = append(traced, u)
		}
	}
	rc.timed = time.Since(start)
	rc.units["units"] = len(plain) + len(traced)
	if len(plain) == 0 || (rc.trace && len(traced) == 0) {
		return fmt.Errorf("%s: no successful unit", spec.name)
	}
	rc.digest = hashParts(digest.sum(), plain[0].ndjsonSHA)
	secs := func(us []*stormUnit) []float64 {
		out := make([]float64, len(us))
		for i, u := range us {
			out[i] = u.seconds
		}
		return out
	}
	last := plain[len(plain)-1]
	rep := last.rep
	n := float64(requests)
	if spec.chaos {
		share := float64(rep.Completed) / n
		if !rc.quick && (share < 0.7 || share > 0.9 || rep.Shed == 0 || rep.Deadline == 0 || rep.Failed == 0) {
			rc.fail("%s outcome mix left its regime: completed %.3f, shed %d, deadline %d, failed %d",
				spec.name, share, rep.Shed, rep.Deadline, rep.Failed)
		}
	} else if per := float64(rep.Throttles) / n; !rc.quick && per >= 0.1 {
		rc.fail("%s: %.3f throttles per request — not the steady regime", spec.name, per)
	}
	fmt.Printf("# %s sim: completed %d shed %d deadline %d throttled %d failed %d budget-exhausted %d of %d; p99 %v; throttles %d retries %d hedges %d\n",
		spec.name, rep.Completed, rep.Shed, rep.Deadline, rep.Throttled, rep.Failed, rep.BudgetExhausted, rep.Requests,
		rep.P99Latency, rep.Throttles, rep.Retries, rep.Hedges)

	if !rc.trace {
		e := rc.e2e
		rc.printTiming("unit", secs(plain))
		e.setFrom("ops_per_s", n/median(secs(plain)), secs(plain))
		allocs := make([]float64, len(plain))
		for i, u := range plain {
			allocs[i] = mb(uint64(u.allocB))
		}
		e.set("alloc_mb_per_unit", median(allocs))
		e.set("good_share", float64(rep.Good)/n)
		e.set("sim_usd_per_op", rep.CostPerGood)
		e.set("sim_resp_s", rep.P99Latency.Seconds())
		e.set("sim_goodput_rps", rep.Goodput)
		return nil
	}

	l := rc.layer
	nsPerReq := 1e9 * median(secs(plain)) / n
	l.set("serving.ns_per_req", nsPerReq)
	l.set("serving.alloc_bytes_per_req", last.allocB/n)
	l.set("serving.mallocs_per_req", last.mallocs/n)
	l.set("trace.overhead_pct", overheadPct(median(secs(plain)), median(secs(traced))))
	t := traced[len(traced)-1]
	snap := last.mx.Snapshot()
	invokes := float64(snap.Counters["lambda_invocations_total"]) / n
	puts, gets := float64(last.puts)/n, float64(last.gets)/n
	charges := float64(t.charges) / n
	throttles := float64(rep.Throttles) / n
	counterWrites, histWrites := countWrites(snap.Counters)+t.seriesWrites[0], t.seriesWrites[1]
	for _, h := range snap.Histograms {
		histWrites += h.Count
	}
	l.set("serving.throttles_per_req", throttles)
	l.set("serving.batches_per_req", float64(snap.Counters["serving_batches_total"])/n)
	l.set("lambda.invokes_per_req", invokes)
	l.set("lambda.cold_starts_per_req", float64(snap.Counters["lambda_cold_starts_total"])/n)
	l.set("s3.puts_per_req", puts)
	l.set("s3.gets_per_req", gets)
	l.set("billing.charges_per_req", charges)
	l.set("faults.fired_per_req", float64(last.fired)/n)
	l.set("coordinator.retries_per_req", float64(snap.Counters["coordinator_retries_total"])/n)
	l.set("coordinator.hedges_per_req", float64(snap.Counters["coordinator_hedges_total"])/n)
	l.set("obs.writes_per_req", float64(counterWrites+histWrites)/n)
	l.set("obs.frames_per_unit", float64(last.frames))
	l.set("s3.busy_ns_per_req", float64(t.storeBusy.Nanoseconds())/n)
	neg, names := negativeFields(rep)
	l.set("serving.negative_counter_fields", float64(neg))
	if neg > 0 {
		rc.findings = append(rc.findings, fmt.Sprintf("%s: serving.Report fields below zero: %v", spec.name, names))
	}
	if spec.chaos {
		var all []float64
		for _, u := range plain {
			all = append(all, u.scrapesUS...)
		}
		if len(all) > 0 {
			l.set("obs.scrape_p50_us", median(all))
		}
		l.set("obs.scrapes_per_unit", float64(len(all))/float64(len(plain)))
	}
	if err := scrapeCosts(rc, last.mx); err != nil {
		return err
	}

	// The ledger: microbenchmark ns × calls per request for each leaf,
	// the rest of serving.ns_per_req being serving + coordinator self
	// time. Telemetry writes are counted from the registry snapshot and
	// the series frames (counter increments and histogram observations;
	// gauge sets and float totals leave no count behind and stay in the
	// residual).
	leaves := map[string]float64{
		"sim":     micro.poissonNext + micro.slabAllocFree + micro.heapPushPop*(throttles+invokes),
		"lambda":  (micro.invokeWarm - micro.invokeCharges*micro.billingAdd) * invokes,
		"s3":      (micro.put-micro.putCharges*micro.billingAdd)*puts + (micro.get-micro.getCharges*micro.billingAdd)*gets,
		"billing": micro.billingAdd * charges,
		"obs":     (micro.counterHandle*float64(counterWrites) + micro.seriesHistHandle*float64(histWrites)) / n,
	}
	if spec.chaos {
		leaves["faults"] = micro.invokeDraw*invokes + micro.storeDraw*(puts+gets)
	}
	residual := nsPerReq
	fmt.Printf("# ledger %s (ns per request)\n", spec.name)
	for _, leaf := range ledgerLeaves {
		l.set("ledger."+leaf+"_ns_per_req", leaves[leaf])
		residual -= leaves[leaf]
		fmt.Printf("#   %-8s %10.1f\n", leaf, leaves[leaf])
	}
	l.set("ledger.residual_ns_per_req", residual)
	fmt.Printf("#   %-8s %10.1f   (serving + coordinator self time)\n#   %-8s %10.1f   = serving.ns_per_req\n", "residual", residual, "sum", nsPerReq)
	return nil
}
