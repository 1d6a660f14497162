package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef is one row of the metric catalogue. BENCHMARK.json repeats
// name, unit, better and bound; bench_test.go holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, share of the base median
	// Exact marks a value that is a function of seed and code only: two
	// runs at one seed must print the same digits, and -compare treats
	// any difference as a change of the model, not as noise.
	Exact bool
}

// Units: "s"/"ms"/"us"/"ns" are host wall-clock; "sim_s" is simulated
// seconds — what the modelled cloud would take — and never host time.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_unit", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "good_share", Unit: "ratio", Better: "higher", Bound: 0.06, Exact: true},
	{Name: "sim_usd_per_op", Unit: "USD", Better: "lower", Bound: 0.04, Exact: true},
	{Name: "sim_resp_s", Unit: "sim_s", Better: "lower", Bound: 0.05, Exact: true},
	{Name: "sim_goodput_rps", Unit: "1/sim_s", Better: "higher", Bound: 0.05, Exact: true},
}

// planCaseNames and coldModelNames fix the per-case metric names; the
// workloads build their inputs from the same lists.
var (
	planCaseNames = []string{
		"mobilenet-q20", "mobilenet-q21s1", "resnet50-q20", "resnet50-q21s1",
		"inceptionv3-q21s1", "xception-q21s1", "bertbase-q21s1", "tinycnn-bnb",
	}
	coldModelNames = []string{"mobilenet", "resnet50", "inceptionv3"}
	ledgerLeaves   = []string{"sim", "lambda", "s3", "billing", "faults", "obs"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			d = append(d, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// Planner.
	add("ms", "lower", "optimizer.new_ms", "optimizer.optimize_ms", "optimizer.coplan_ms", "miqp.bnb_costonly_ms")
	add("MB", "lower", "optimizer.new_alloc_mb")
	for _, c := range planCaseNames {
		add("ms", "lower", "plan."+c+"_ms")
	}
	// Cold path.
	for _, m := range coldModelNames {
		add("ms", "lower", "cold."+m+"_unit_ms", "cold."+m+"_submit_ms", "cold."+m+"_infer_ms")
	}
	add("ms", "lower", "modelfmt.split_weights_ms", "modelfmt.decode_weights_ms",
		"coordinator.deploy_ms", "coordinator.run_ms", "coordinator.teardown_ms", "coordinator.overhead_ms",
		"nn.forward_ms", "nn.init_weights_ms", "zoo.build_ms")
	add("MB/s", "higher", "modelfmt.tensor_codec_mbps")
	for _, k := range kernelNames {
		add("ms", "lower", "tensor."+k+"_ms")
		add("GFLOP/s", "higher", "tensor."+k+"_gflops")
	}
	// Storm path: whole path, boundary counts, call-shape microbenches, ledger.
	add("ns", "lower", "serving.ns_per_req")
	add("B", "lower", "serving.alloc_bytes_per_req")
	add("count", "lower", "serving.mallocs_per_req", "serving.throttles_per_req", "serving.batches_per_req",
		"lambda.invokes_per_req", "lambda.cold_starts_per_req", "s3.puts_per_req", "s3.gets_per_req",
		"billing.charges_per_req", "faults.fired_per_req", "coordinator.retries_per_req",
		"coordinator.hedges_per_req", "obs.writes_per_req", "obs.frames_per_unit", "serving.negative_counter_fields")
	add("ns", "lower", "s3.busy_ns_per_req",
		"sim.heap_pushpop_ns", "sim.slab_allocfree_ns", "sim.poisson_next_ns", "lambda.invoke_warm_ns",
		"billing.add_ns", "faults.invoke_draw_ns", "faults.store_draw_ns", "s3.put_ns", "s3.get_ns",
		"obs.counter_handle_ns", "obs.series_hist_handle_ns", "coordinator.lean_job_ns", "coordinator.span_job_ns")
	add("us", "lower", "obs.snapshot_us", "obs.prometheus_write_us", "obs.scrape_p50_us")
	add("ms", "lower", "coordinator.deploy_linearnet_ms")
	for _, l := range ledgerLeaves {
		add("ns", "lower", "ledger."+l+"_ns_per_req")
	}
	add("ns", "lower", "ledger.residual_ns_per_req")
	add("count", "higher", "obs.scrapes_per_unit")
	add("%", "lower", "trace.overhead_pct")
	return d
}

// value is one reported metric. N, Q1, Q3 and the high percentile
// describe the samples behind a median; Spread is their interquartile
// distance as a share of the median (for a value built from several
// cases' medians, the widest case's over the fewest samples). All are
// zero for a value that is a count or a single computation.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
	HighPct int     `json:"high_pct,omitempty"`
	High    float64 `json:"high,omitempty"`
}

// metricSet collects one run's metrics against one half of the catalogue.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: map[string]metricDef{}, vals: map[string]value{}}
	for _, d := range defs {
		ms.defs[d.Name] = d
	}
	return ms
}

// set records a value; a name outside the catalogue is a bug in bench/.
func (ms *metricSet) set(name string, v float64) {
	d, ok := ms.defs[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not in the catalogue", name))
	}
	ms.vals[name] = value{Value: v, Unit: d.Unit}
}

// setMedian records the median of samples scaled by k, with its
// quartiles, sample count and highest supported percentile.
func (ms *metricSet) setMedian(name string, samples []float64, k float64) {
	if len(samples) == 0 {
		return
	}
	ms.set(name, median(samples)*k)
	v := ms.vals[name]
	v.N = len(samples)
	v.Q1, v.Q3, v.Spread = quantile(samples, 1)*k, quantile(samples, 3)*k, spread(samples)
	if p, h, ok := highPercentile(samples); ok {
		v.HighPct, v.High = p, h*k
	}
	ms.vals[name] = v
}

// setFrom records a value derived from the medians of one or more
// sample sets, with the fewest samples and the widest spread among them.
func (ms *metricSet) setFrom(name string, v float64, sets ...[]float64) {
	ms.set(name, v)
	val := ms.vals[name]
	for i, s := range sets {
		if i == 0 || len(s) < val.N {
			val.N = len(s)
		}
		val.Spread = math.Max(val.Spread, spread(s))
	}
	ms.vals[name] = val
}

// finish fills every catalogue name the workload did not set with 0 —
// a per-layer metric reads 0 on a workload that never crosses the layer —
// and returns the names in print order.
func (ms *metricSet) finish() []string {
	names := make([]string, 0, len(ms.defs))
	for n, d := range ms.defs {
		if _, ok := ms.vals[n]; !ok {
			ms.vals[n] = value{Unit: d.Unit}
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
