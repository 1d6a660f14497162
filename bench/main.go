// Command bench is the repository's benchmark: four workloads over the
// three wall-clock paths the ROADMAP names — the planner alone
// (plan_zoo), plan → deploy → first real inference (cold_infer), and
// the streamed storm in its sequential (storm_steady) and
// pipelined+batched+faulted (storm_chaos) forms — with end-to-end
// metrics from an untraced pass and per-layer metrics, measured from
// outside the program, from a traced one. See README.md.
//
//	go run . [-seed N] [-seconds S] [-out FILE]        all workloads, both passes
//	go run . -workload W -trace 0|1 [-seed N] ...      one pass of one workload
//	go run . -compare A.json B.json                    compare two result files
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	name string
	// clients is the number of host goroutines generating load: the one
	// closed-loop client, plus the scraper beside the chaos storm.
	clients int
	run     func(*runCtx) error
}

var workloads = []workloadDef{
	{"plan_zoo", 1, runPlanZoo},
	{"cold_infer", 1, runColdInfer},
	{"storm_steady", 1, func(rc *runCtx) error { return runStorm(rc, &stormSteady) }},
	{"storm_chaos", 2, func(rc *runCtx) error { return runStorm(rc, &stormChaos) }},
}

// runCtx carries one pass of one workload: its arguments, what it
// counted, and the two metric sets (one of which it fills).
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool

	rec        *recorder // nil unless tracing
	e2e, layer *metricSet
	setupS     []float64
	attempted  int
	failed     int
	failures   []string
	findings   []string
	warnings   []string
	units      map[string]int
	samples    map[string][]float64 // unit seconds behind the timings, by label
	digest     string
	timed      time.Duration
}

// setup runs f reps times, keeping what the last call built; setup_s
// is the median, so one slow first touch does not decide it.
func (rc *runCtx) setup(reps int, f func() error) error {
	if rc.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rc.setupS = append(rc.setupS, time.Since(t0).Seconds())
		runtime.GC() // the previous repetition's inputs are garbage now
	}
	return nil
}

// more reports whether another unit fits: always until min units are
// done, then while the time budget lasts. The traced pass spends half
// its budget on units and the rest on microbenchmarks and layer splits.
// Quick mode stops at min.
func (rc *runCtx) more(start time.Time, done, min int) bool {
	if done < min {
		return true
	}
	budget := rc.seconds
	if rc.trace {
		budget /= 2
	}
	return !rc.quick && time.Since(start).Seconds() < budget
}

// fail records failed operations; the run goes on so that every
// failure is listed, and ends with correct=false.
func (rc *runCtx) failOps(ops int, format string, args ...any) {
	rc.failed += ops
	if len(rc.failures) < 20 {
		rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
	}
}

func (rc *runCtx) fail(format string, args ...any) { rc.failOps(1, format, args...) }

// printTiming prints the median, quartiles, highest supported
// percentile and sample count of a set of unit times, and keeps the
// samples for the result file.
func (rc *runCtx) printTiming(label string, secs []float64) {
	rc.samples[label] = secs
	line := fmt.Sprintf("# %s %s: median %.4f s, q1 %.4f, q3 %.4f, n=%d", rc.workload, label,
		median(secs), quantile(secs, 1), quantile(secs, 3), len(secs))
	if p, v, ok := highPercentile(secs); ok {
		line += fmt.Sprintf(", p%d %.4f s", p, v)
	} else {
		line += ", no percentile above the median has ten samples beyond it"
	}
	fmt.Println(line)
}

// digestCheck holds one digest per key and fails the run when a later
// unit's digest differs: all units of a workload simulate one thing.
type digestCheck struct{ byKey map[string]string }

func (d *digestCheck) add(rc *runCtx, unit int, key, content string) {
	if d.byKey == nil {
		d.byKey = map[string]string{}
	}
	h := hashParts(content)
	if prev, ok := d.byKey[key]; !ok {
		d.byKey[key] = h
	} else if prev != h {
		rc.fail("unit %d: sim digest of %s is %s, earlier units gave %s", unit, key, h[:12], prev[:12])
	}
}

func (d *digestCheck) sum() string {
	keys := make([]string, 0, len(d.byKey))
	for k := range d.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		parts = append(parts, k, d.byKey[k])
	}
	return hashParts(parts...)
}

func hashParts(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// subSeed derives the seed of one random stream from the run's seed
// and the stream's name, so no two streams share draws.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// memCounters is the part of runtime.MemStats the benchmark reads.
type memCounters struct{ totalAlloc, mallocs uint64 }

func (m *memCounters) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.totalAlloc, m.mallocs = ms.TotalAlloc, ms.Mallocs
}

func totalAlloc() uint64 {
	var m memCounters
	m.read()
	return m.totalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// overheadPct is the traced pass's extra time as a percentage of the
// untraced one.
func overheadPct(plain, traced float64) float64 { return 100 * (traced - plain) / plain }

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

// benchDir finds the benchmark's directory from the working directory:
// the repository root (`go run ./bench`-style wrappers) or bench/ itself.
func benchDir() string {
	for _, d := range []string{".", "bench"} {
		if _, err := os.Stat(filepath.Join(d, goldenFile)); err == nil {
			return d
		}
	}
	return "."
}

// runResult is what one pass writes with -out and the full run merges.
type runResult struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Trace        bool                 `json:"trace"`
	Quick        bool                 `json:"quick,omitempty"`
	Correct      bool                 `json:"correct"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	Metrics      map[string]value     `json:"metrics"`
	Digest       string               `json:"sim_digest"`
	Units        map[string]int       `json:"units"`
	UnitSeconds  map[string][]float64 `json:"unit_seconds,omitempty"`
	TimedSeconds float64              `json:"timed_seconds"`
	WallSeconds  float64              `json:"wall_seconds"`
	Failures     []string             `json:"failures,omitempty"`
	Findings     []string             `json:"findings,omitempty"`
	Warnings     []string             `json:"warnings,omitempty"`
}

// runOne runs one pass of one workload in this process.
func runOne(name string, seed int64, seconds float64, trace, quick bool) (*runResult, error) {
	begin := time.Now()
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if n := runtime.NumCPU(); wl.clients > n {
		return nil, fmt.Errorf("%s runs %d load-generating goroutines and this machine has %d CPUs: they would time each other", name, wl.clients, n)
	}
	rc := &runCtx{
		workload: name, seed: seed, seconds: seconds, trace: trace, quick: quick,
		e2e: newMetricSet(endToEnd), layer: newMetricSet(perLayer), units: map[string]int{}, samples: map[string][]float64{},
	}
	if trace {
		rc.rec = newRecorder()
	}
	if err := wl.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ms := rc.layer
	if !trace {
		ms = rc.e2e
		ms.setMedian("setup_s", rc.setupS, 1)
		ms.set("peak_rss_mb", peakRSSMB())
		if _, set := ms.vals["good_share"]; !set {
			ms.set("good_share", float64(rc.attempted-rc.failed)/float64(rc.attempted))
		}
		for _, d := range endToEnd {
			if v, ok := ms.vals[d.Name]; !ok || v.Value == 0 {
				return nil, fmt.Errorf("%s: end-to-end metric %s is missing or zero", name, d.Name)
			}
		}
	}
	if lo, hi := 0.75*seconds, 1.6*seconds; !quick && !trace && (rc.timed.Seconds() < lo || rc.timed.Seconds() > hi) {
		rc.warnings = append(rc.warnings, fmt.Sprintf("timed region %.1f s is outside %.0f–%.0f s for -seconds %g", rc.timed.Seconds(), lo, hi, seconds))
	}
	res := &runResult{
		Workload: name, Seed: seed, Trace: trace, Quick: quick,
		Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed,
		Metrics: ms.vals, Digest: rc.digest, Units: rc.units, UnitSeconds: rc.samples,
		TimedSeconds: rc.timed.Seconds(),
		Failures:     rc.failures, Findings: rc.findings, Warnings: rc.warnings,
	}
	for _, n := range ms.finish() {
		v := ms.vals[n]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, n, v.Value)
		}
		line := fmt.Sprintf("%-14s %-38s %16.6g %-8s", name, n, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d spread=%.3f", v.N, v.Spread)
		}
		if v.Q3 > 0 {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g", v.Q1, v.Q3)
		}
		if v.HighPct > 0 {
			line += fmt.Sprintf(" p%d=%.6g", v.HighPct, v.High)
		}
		fmt.Println(line)
	}
	for _, f := range rc.failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	for _, f := range rc.findings {
		fmt.Printf("# known finding: %s\n", f)
	}
	for _, w := range rc.warnings {
		fmt.Printf("# WARNING %s: %s\n", name, w)
	}
	if trace {
		path := filepath.Join(benchDir(), "out", "trace-"+name+".json")
		if err := rc.rec.write(path); err != nil {
			return nil, err
		}
		self := rc.rec.selfByName()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("# %s self time by span (%d spans in %s)\n", name, len(rc.rec.spans), path)
		for _, n := range names {
			fmt.Printf("#   %-28s %10.3f ms\n", n, self[n].Seconds()*1e3)
		}
	}
	res.WallSeconds = time.Since(begin).Seconds()
	return res, nil
}

// driverLine is the last line of a single pass: exactly these keys.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// provenance records where and how a full run was made.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_per_pass"`
	Quick      bool    `json:"quick,omitempty"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_seconds"`
}

func newProvenance(seed int64, seconds float64, quick bool) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Seed: seed, Seconds: seconds, Quick: quick, Started: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", benchDir(), "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// fullResult is the file a full run writes and -compare reads.
type fullResult struct {
	Provenance provenance                       `json:"provenance"`
	Workloads  map[string]map[string]*runResult `json:"workloads"` // workload → "end_to_end" | "per_layer"
}

// runAll re-executes this program once per workload and pass, so heap
// state and the resident high-water mark belong to one pass alone.
func runAll(seed int64, seconds float64, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	begin := time.Now()
	full := fullResult{Provenance: newProvenance(seed, seconds, quick), Workloads: map[string]map[string]*runResult{}}
	tmp := filepath.Join(benchDir(), "out", "pass.json")
	ok := true
	for _, wl := range workloads {
		full.Workloads[wl.name] = map[string]*runResult{}
		for _, pass := range []struct {
			key, trace string
		}{{"end_to_end", "0"}, {"per_layer", "1"}} {
			args := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", pass.trace, "-out", tmp}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(tmp)
			if err != nil {
				return fmt.Errorf("%s %s: %v (%v)", wl.name, pass.key, runErr, err)
			}
			os.Remove(tmp)
			var res runResult
			if err := json.Unmarshal(b, &res); err != nil {
				return err
			}
			full.Workloads[wl.name][pass.key] = &res
			ok = ok && res.Correct && runErr == nil
		}
	}
	full.Provenance.WallS = time.Since(begin).Seconds()
	if err := writeJSON(out, &full); err != nil {
		return err
	}
	fmt.Printf("# wrote %s (%.1f s)\n", out, full.Provenance.WallS)
	if !ok {
		return fmt.Errorf("an output check failed")
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one pass of this workload (default: all workloads, both passes)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 20, "time budget of one pass's measured units")
		trace   = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		quick   = flag.Bool("quick", false, "smoke sizes: one or two tiny units, tinycnn and linearnet only")
		out     = flag.String("out", "", "write the result JSON here (default for a full run: out/result.json)")
		compare = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		golden  = flag.Bool("write-golden", false, "regenerate "+goldenFile+" (frozen; see README)")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare wants two result files")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		case *golden:
			return writeGolden()
		case *name == "":
			if *out == "" {
				*out = filepath.Join(benchDir(), "out", "result.json")
			}
			return runAll(*seed, *seconds, *quick, *out)
		}
		res, err := runOne(*name, *seed, *seconds, *trace != 0, *quick)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				return err
			}
		}
		line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
		for n, v := range res.Metrics {
			line.Metrics[n] = driverValue{v.Value, v.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed their output check", *name, res.Failed, res.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
