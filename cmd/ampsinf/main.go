// Command ampsinf is the framework's CLI: inspect models, compute
// partitioning/provisioning plans, and serve inference jobs on the
// simulated serverless platform.
//
// Usage:
//
//	ampsinf models
//	ampsinf summary -model resnet50
//	ampsinf plan    -model resnet50 [-slo 30s] [-max-lambdas 16]
//	ampsinf infer   -model mobilenet [-slo 12s] [-images 3 | -sequential -timeline] [-real]
//	                [-trace trace.json] [-metrics metrics.json] [-spans spans.json]
//	ampsinf sweep   -model mobilenet [-trace trace.json] [-metrics metrics.json]
//	ampsinf serve   -model mobilenet [-requests 100] [-pattern poisson|uniform|burst]
//	                [-pipeline 4] [-batch 4|-batch -1] [-batch-window 1s]
//	                [-rate 5] [-limit 1000] [-sequential] [-full]
//	                [-budget 12] [-budget-earn 0.25] [-fallback-bits 4]
//	                [-brownout] [-brownout-p99 2s] [-brownout-bad 0.25]
//	                [-domains 3] [-domain-outage-every 250s] [-domain-outage-length 60s]
//	                [-sample-rate 0.1] [-metrics-window 1s]
//	                [-http :9090] [-stream stream.ndjson]
//	                [-trace trace.json] [-metrics metrics.json] [-spans spans.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/coordinator"
	"ampsinf/internal/core"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/prof"
	"ampsinf/internal/serving"
	"ampsinf/internal/tensor"
	"ampsinf/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "models":
		for _, n := range zoo.Names() {
			fmt.Println(n)
		}
	case "summary":
		err = cmdSummary(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "infer":
		err = cmdInfer(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ampsinf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ampsinf <models|summary|plan|infer|sweep|serve> [flags]")
}

func buildModel(name string) (*nn.Model, error) {
	return zoo.Build(name, 0)
}

// profileFlags registers -cpuprofile/-memprofile on fs. The returned
// start function runs after fs.Parse; its stop function must be
// deferred so the profiles flush on exit.
func profileFlags(fs *flag.FlagSet) func() (func(), error) {
	cpu := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	mem := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	return func() (func(), error) {
		stop, err := prof.Start(*cpu, *mem)
		if err != nil {
			return nil, err
		}
		return func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "ampsinf:", err)
			}
		}, nil
	}
}

// finiteFloats rejects a NaN or infinite value given to any float flag
// of fs. flag.Float64 parses both, and NaN fails every comparison the
// policies and the "> 0" switches below gate on.
func finiteFloats(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if g, ok := f.Value.(flag.Getter); ok && err == nil {
			if x, ok := g.Get().(float64); ok && (math.IsNaN(x) || math.IsInf(x, 0)) {
				err = fmt.Errorf("-%s %v: not a finite number", f.Name, x)
			}
		}
	})
	return err
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	model := fs.String("model", "mobilenet", "zoo model name")
	fs.Parse(args)
	m, err := buildModel(*model)
	if err != nil {
		return err
	}
	fmt.Print(m.Summary())
	segs := m.Segments()
	fmt.Printf("Cut segments: %d (valid split points for serverless partitioning)\n", len(segs))
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	model := fs.String("model", "resnet50", "zoo model name")
	slo := fs.Duration("slo", 0, "response-time SLO (0 = cost-optimal)")
	maxLambdas := fs.Int("max-lambdas", 16, "partition cap (K)")
	useBnB := fs.Bool("bnb", false, "use the QCR+branch-and-bound MIQP path")
	startProf := profileFlags(fs)
	fs.Parse(args)
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer stopProf()

	m, err := buildModel(*model)
	if err != nil {
		return err
	}
	start := time.Now()
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), SLO: *slo,
		MaxLambdas: *maxLambdas, UseBnB: *useBnB,
	})
	if err != nil {
		return err
	}
	fmt.Printf("model %s: %d layers, %.0f MB weights, %.2f GFLOPs\n",
		m.Name, m.NumLayers(), float64(m.WeightBytes())/(1<<20), float64(m.TotalFLOPs())/1e9)
	fmt.Printf("plan computed in %v (paper: \"a few seconds on a laptop\")\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("partitions: %d   est. response %.2fs   est. cost $%.6f   SLO met: %v\n",
		len(plan.Lambdas), plan.EstTime.Seconds(), plan.EstCost, plan.MeetsSLO)
	switch {
	case *slo > 0 && !plan.MeetsSLO:
		fmt.Println("no plan meets the SLO: this is the fastest (λ = +Inf)")
	case *slo > 0:
		fmt.Printf("λ = %.3g $ per s of SLO   cost ≤ %.2f%% above the cheapest plan meeting it\n",
			plan.LagrangeMultiplier, 100*plan.Gap)
	}
	for i, l := range plan.Lambdas {
		fmt.Printf("  λ%d: layers [%d, %d)  %4d MB  weights %.1f MB  T=%.2fs  $%.6f\n",
			i, l.LayerLo, l.LayerHi, l.MemoryMB,
			float64(l.Profile.WeightsBytes)/(1<<20), l.EstTime.Seconds(), l.EstCost)
	}
	return nil
}

func cmdInfer(args []string) error {
	fs := flag.NewFlagSet("infer", flag.ExitOnError)
	model := fs.String("model", "mobilenet", "zoo model name")
	slo := fs.Duration("slo", 0, "response-time SLO")
	images := fs.Int("images", 1, "number of images")
	sequential := fs.Bool("sequential", false, "strictly sequential invocations (one image only)")
	real := fs.Bool("real", false, "run real forward passes (slow for big models)")
	timeline := fs.Bool("timeline", false, "render an ASCII timeline of the job (one image only)")
	faultRate := fs.Float64("fault-rate", 0, "inject platform faults at this overall rate (0..1)")
	faultSeed := fs.Int64("fault-seed", 1, "fault-injection and retry-jitter seed")
	retries := fs.Int("retries", 0, "max attempts per operation under faults (0 = default policy when faults are on)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
	spansOut := fs.String("spans", "", "write the full span-tree JSON dump to this file")
	metricsOut := fs.String("metrics", "", "write a metrics snapshot JSON to this file")
	startProf := profileFlags(fs)
	fs.Parse(args)
	if err := finiteFloats(fs); err != nil {
		return err
	}
	if *images < 1 {
		return fmt.Errorf("-images %d: need at least one image", *images)
	}
	// Several images run as concurrent pipelines: there is no sequential
	// schedule and no single job to draw.
	if *images > 1 && *sequential {
		return fmt.Errorf("-sequential serves one image, not -images %d", *images)
	}
	if *images > 1 && *timeline {
		return fmt.Errorf("-timeline draws one image's job, not -images %d", *images)
	}
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer stopProf()

	m, err := buildModel(*model)
	if err != nil {
		return err
	}
	w := nn.InitWeights(m, 1)
	opts := core.Options{}
	subOpts := core.SubmitOptions{SLO: *slo, SkipCompute: !*real}
	if *faultRate > 0 || *retries > 1 {
		opts.Faults = faults.New(faults.Uniform(*faultRate, *faultSeed))
		subOpts.Retry = coordinator.DefaultRetryPolicy()
		subOpts.Retry.JitterSeed = *faultSeed
		if *retries > 0 {
			subOpts.Retry.MaxAttempts = *retries
		}
	}
	var tracer *obs.Tracer
	if *traceOut != "" || *spansOut != "" {
		tracer = obs.NewTracer()
		opts.Trace = tracer
	}
	var mx *obs.Metrics
	if *metricsOut != "" {
		mx = obs.NewMetrics()
		opts.Metrics = mx
	}
	fw := core.NewFramework(opts)
	svc, err := fw.Submit(m, w, subOpts)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Printf("deployed %d partition(s), memories %v, planning took %v\n",
		svc.Partitions(), svc.Plan.Memories(), svc.PlanningTime.Round(time.Millisecond))

	imgs := workload.Images(m, *images, 7)
	if *images == 1 {
		var rep *coordinator.Report
		if *sequential {
			rep, err = svc.InferSequential(imgs[0])
		} else {
			rep, err = svc.Infer(imgs[0])
		}
		if err != nil {
			return err
		}
		fmt.Printf("served 1 image: completion %.2fs, cost $%.6f", rep.Completion.Seconds(), rep.Cost)
		if *real {
			fmt.Printf(", predicted class %d", tensor.ArgMax(rep.Output))
		}
		fmt.Println()
		if rep.FaultsInjected > 0 {
			fmt.Printf("absorbed %d injected fault(s) with %d retries (%.2fs backoff)\n",
				rep.FaultsInjected, rep.Retries, rep.BackoffWait.Seconds())
		}
		if *timeline {
			fmt.Print(coordinator.Timeline(rep, 64))
		}
	} else {
		r, err := svc.InferBatchParallel(imgs)
		if err != nil {
			return err
		}
		fmt.Printf("served %d images in parallel: completion %.2fs, total cost $%.6f\n",
			*images, r.Completion.Seconds(), r.Cost)
	}
	fmt.Println("billing breakdown:")
	bd := fw.Meter().Breakdown()
	keys := make([]string, 0, len(bd))
	for k := range bd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s $%.6f\n", k, bd[k])
	}
	return writeObservability(tracer, mx, *traceOut, *spansOut, *metricsOut)
}

// writeObservability writes the requested trace/span/metrics exports.
func writeObservability(tracer *obs.Tracer, mx *obs.Metrics, traceOut, spansOut, metricsOut string) error {
	if traceOut != "" {
		jobs := tracer.Jobs()
		if err := writeFile(traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, jobs)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d jobs, %d spans) to %s — load it in ui.perfetto.dev\n",
			len(jobs), obs.CountSpans(jobs), traceOut)
	}
	if spansOut != "" {
		if err := writeFile(spansOut, func(w io.Writer) error {
			return obs.WriteSpans(w, tracer.Jobs())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote span dump to %s\n", spansOut)
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, mx.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot to %s\n", metricsOut)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "mobilenet", "zoo model name")
	slo := fs.Duration("slo", 0, "response-time SLO")
	requests := fs.Int("requests", 100, "number of requests in the trace")
	pattern := fs.String("pattern", "poisson", "arrival pattern: poisson, uniform or burst")
	rate := fs.Float64("rate", 5, "poisson arrival rate (requests/second)")
	window := fs.Duration("window", 30*time.Second, "uniform pattern: window the arrivals spread over")
	burstSize := fs.Int("burst-size", 8, "burst pattern: simultaneous requests per burst")
	gap := fs.Duration("gap", 5*time.Second, "burst pattern: gap between bursts")
	seed := fs.Int64("seed", 7, "arrival and backoff-jitter seed")
	limit := fs.Int("limit", 0, "account concurrency limit (0 = platform default)")
	sequential := fs.Bool("sequential", false, "strictly sequential invocations per request")
	real := fs.Bool("real", false, "run real forward passes (slow for big models)")
	full := fs.Bool("full", false, "print one line per request, not just the aggregates")
	faultRate := fs.Float64("fault-rate", 0, "inject platform faults at this overall rate (0..1)")
	retries := fs.Int("retries", 0, "max attempts per operation under faults (0 = default policy when faults are on)")
	burstEvery := fs.Duration("burst-every", 0, "overlay correlated fault storms with this mean gap (0 = uncorrelated faults)")
	burstLength := fs.Duration("burst-length", 0, "storm duration (0 = burst-every/4)")
	burstFactor := fs.Float64("burst-factor", 0, "fault-rate multiplier while a storm is active (0 = 10x)")
	deadline := fs.Duration("deadline", 0, "per-request completion deadline; exceeding it fails the request fast (0 = none)")
	shed := fs.Bool("shed", false, "shed requests predicted to miss the deadline before spending on them (requires -deadline)")
	tolerate := fs.Bool("tolerate", false, "record per-request failures as outcomes instead of aborting the trace")
	hedge := fs.Duration("hedge", 0, "hedge partition invocations that outlive this delay (0 = no hedging)")
	hedgePct := fs.Float64("hedge-pct", 0, "derive the hedge delay from this percentile of past attempt durations (0 = fixed -hedge delay)")
	hedgeRate := fs.Float64("hedge-rate", 0, "cap on the fraction of invocations that may hedge (0 = 0.25)")
	breakerN := fs.Int("breaker", 0, "trip a per-function circuit breaker after this many consecutive failures (0 = no breaker)")
	budget := fs.Float64("budget", 0, "global retry budget: token-bucket cap shared by every retry and hedge (0 = unbudgeted)")
	budgetEarn := fs.Float64("budget-earn", 0, "budget tokens earned per first-attempt success (0 = 0.1)")
	fallbackBits := fs.Int("fallback-bits", 0, "pre-deploy a 4- or 8-bit quantized fallback plan the brownout ladder can swap onto (0 = none)")
	brownout := fs.Bool("brownout", false, "enable the adaptive brownout ladder (watches -metrics-window windows; hedges off -> wider batches -> quantized fallback -> hard shed)")
	brownoutP99 := fs.Duration("brownout-p99", 0, "brownout: mark a window unhealthy when its completion p99 exceeds this (0 = trigger off)")
	brownoutBad := fs.Float64("brownout-bad", 0, "brownout: mark a window unhealthy above this bad-outcome fraction (0 = 0.2)")
	domains := fs.Int("domains", 0, "spread containers over this many failure domains (0 or 1 = no domains)")
	outageEvery := fs.Duration("domain-outage-every", 0, "mean gap between whole-domain outage storms (0 = no storms)")
	outageLength := fs.Duration("domain-outage-length", 0, "duration of each domain outage (0 = domain-outage-every/4)")
	pipeline := fs.Int("pipeline", 0, "overlap up to this many requests across partition stages (0 or 1 = sequential admission)")
	batch := fs.Int("batch", 0, "coalesce up to this many queued requests per invocation (-1 = optimizer co-planned size, 0 or 1 = off)")
	batchWindow := fs.Duration("batch-window", 0, "how long a batch leader holds the queue open for followers (0 = 1s default)")
	sampleRate := fs.Float64("sample-rate", 0, "span-sampling rate in [0,1]: fraction of requests whose span trees are kept (0 = always-on tracing)")
	metricsWindow := fs.Duration("metrics-window", time.Second, "time-series window width for -http and -stream exports")
	httpAddr := fs.String("http", "", "serve live telemetry on this address (/metrics, /metrics/stream, /spans); blocks after the run until interrupted")
	streamOut := fs.String("stream", "", "write the NDJSON metrics window stream to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON (load in ui.perfetto.dev) to this file")
	spansOut := fs.String("spans", "", "write the full span-tree JSON dump to this file")
	metricsOut := fs.String("metrics", "", "write a metrics snapshot JSON to this file")
	startProf := profileFlags(fs)
	fs.Parse(args)
	if err := finiteFloats(fs); err != nil {
		return err
	}
	if *requests < 1 {
		return fmt.Errorf("-requests %d: need at least one request", *requests)
	}
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer stopProf()

	m, err := buildModel(*model)
	if err != nil {
		return err
	}
	w := nn.InitWeights(m, 1)
	opts := core.Options{}
	subOpts := core.SubmitOptions{SLO: *slo, SkipCompute: !*real, FallbackBits: *fallbackBits}
	if *faultRate > 0 || *retries > 1 || *domains > 1 {
		fcfg := faults.Uniform(*faultRate, *seed)
		fcfg.BurstEvery = *burstEvery
		fcfg.BurstLength = *burstLength
		fcfg.BurstFactor = *burstFactor
		fcfg.Domains = *domains
		fcfg.DomainOutageEvery = *outageEvery
		fcfg.DomainOutageLength = *outageLength
		opts.Faults = faults.New(fcfg)
		subOpts.Retry = coordinator.DefaultRetryPolicy()
		subOpts.Retry.JitterSeed = *seed
		if *retries > 0 {
			subOpts.Retry.MaxAttempts = *retries
		}
	}
	if *budget > 0 {
		subOpts.Budget = coordinator.BudgetPolicy{MaxTokens: *budget, EarnPerSuccess: *budgetEarn}
	}
	if *hedge > 0 || *hedgePct > 0 {
		subOpts.Hedge = coordinator.HedgePolicy{
			Percentile: *hedgePct, Delay: *hedge,
			MaxRate: *hedgeRate, JitterSeed: *seed,
		}
	}
	if *breakerN > 0 {
		subOpts.Breaker = coordinator.BreakerPolicy{ConsecutiveFailures: *breakerN}
	}
	var tracer *obs.Tracer
	if *traceOut != "" || *spansOut != "" {
		tracer = obs.NewTracer()
		opts.Trace = tracer
	}
	var mx *obs.Metrics
	if *metricsOut != "" || *httpAddr != "" {
		mx = obs.NewMetrics()
		opts.Metrics = mx
	}
	var series *obs.TimeSeries
	if *httpAddr != "" || *streamOut != "" || *brownout {
		// The brownout controller closes its loop over this same window
		// stream, so enabling it implies a series even with no exports.
		series = obs.NewTimeSeries(*metricsWindow)
		opts.Series = series
	}
	// Close is idempotent; the deferred call covers error returns so a
	// failed run still flushes its tail window and releases any
	// /metrics/stream?follow=1 followers.
	defer series.Close()
	fw := core.NewFramework(opts)
	svc, err := fw.Submit(m, w, subOpts)
	if err != nil {
		return err
	}
	defer svc.Close()
	if *limit > 0 {
		fw.Platform().SetAccountConcurrency(*limit)
	}

	// The telemetry endpoints bind before the run starts, so scrapers
	// (and CI smoke checks) can poll /metrics while requests are being
	// served; the registry and series carry their own locks.
	var state *obs.ServeState
	var srv *http.Server
	if *httpAddr != "" {
		state = obs.NewServeState(mx, series)
		ln, lerr := net.Listen("tcp", *httpAddr)
		if lerr != nil {
			return lerr
		}
		srv = &http.Server{Handler: state.Handler()}
		go srv.Serve(ln)
		fmt.Printf("telemetry: http://%s (/metrics, /metrics/stream, /spans)\n", ln.Addr())
	}
	fmt.Printf("deployed %d partition(s), memories %v, account concurrency %d\n",
		svc.Partitions(), svc.Plan.Memories(), fw.Platform().AccountConcurrency())

	var arrivals []time.Duration
	switch *pattern {
	case "poisson":
		arrivals = workload.PoissonArrivals(*requests, *rate, *seed)
	case "uniform":
		arrivals = workload.UniformArrivals(*requests, *window)
	case "burst":
		arrivals = workload.BurstArrivals(*requests, *burstSize, *gap)
	default:
		return fmt.Errorf("unknown arrival pattern %q", *pattern)
	}
	inputs := workload.Images(m, *requests, *seed)

	if *batch != 0 {
		if chosen := svc.BatchPlan.Chosen; chosen > 0 {
			if opt := svc.BatchPlan.Option(chosen); opt != nil {
				fmt.Printf("batch co-plan: size %d at $%.6f/request (est. %.2fs per batched pass)\n",
					chosen, opt.CostPerRequest, opt.EstTime.Seconds())
			}
		}
	}
	rep, err := svc.Serve(inputs, arrivals, serving.Config{
		Sequential: *sequential,
		Throttle:   serving.ThrottlePolicy{JitterSeed: *seed},
		SLO: serving.SLOPolicy{
			Deadline: *deadline, Shed: *shed, TolerateFailures: *tolerate,
		},
		Pipeline: serving.PipelinePolicy{Depth: *pipeline},
		Batch:    serving.BatchPolicy{MaxBatch: *batch, Window: *batchWindow, JitterSeed: *seed},
		Brownout: serving.BrownoutPolicy{
			Enabled: *brownout, P99: *brownoutP99, BadFraction: *brownoutBad,
		},
		Sample:  serving.SamplePolicy{Rate: *sampleRate, Seed: *seed},
		Metrics: mx,
		Series:  series,
	})
	if err != nil {
		return err
	}
	series.Close()
	if *full {
		fmt.Print(rep.Render())
	} else {
		fmt.Print(rep.Summary())
	}

	fmt.Println("billing breakdown:")
	bd := fw.Meter().Breakdown()
	keys := make([]string, 0, len(bd))
	for k := range bd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s $%.6f\n", k, bd[k])
	}

	// Export the request-level span trees (queue waits + shifted job
	// trees on the serving clock), not the raw per-job trees.
	roots := rep.Traces()
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, roots)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d requests, %d spans) to %s — load it in ui.perfetto.dev\n",
			len(roots), obs.CountSpans(roots), *traceOut)
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, func(w io.Writer) error {
			return obs.WriteSpans(w, roots)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote span dump to %s\n", *spansOut)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, mx.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
	}
	if *streamOut != "" {
		if err := writeFile(*streamOut, series.WriteNDJSON); err != nil {
			return err
		}
		fmt.Printf("wrote %d metrics windows to %s\n", series.FlushedWindows(), *streamOut)
	}
	if state != nil {
		state.SetSpans(func() []*obs.Span { return roots })
		fmt.Println("run complete; telemetry endpoints stay live — interrupt (Ctrl-C) to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// The series closed when the run finished, so stream followers
		// have already been handed the final partial window and released;
		// Shutdown drains whatever snapshot responses are still in flight
		// instead of cutting them off mid-write.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("telemetry shutdown: %w", err)
		}
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	model := fs.String("model", "mobilenet", "zoo model name (must fit one lambda)")
	traceOut := fs.String("trace", "", "serve one job per memory block and write a Chrome trace-event JSON to this file")
	metricsOut := fs.String("metrics", "", "serve one job per memory block and write a metrics snapshot JSON to this file")
	startProf := profileFlags(fs)
	fs.Parse(args)
	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer stopProf()
	m, err := buildModel(*model)
	if err != nil {
		return err
	}
	o, err := optimizer.New(optimizer.Request{Model: m, Perf: perf.Default()})
	if err != nil {
		return err
	}
	S := len(o.Segments())
	fmt.Println("memMB  time(s)  cost($)")
	for _, mem := range pricing.MemoryBlocks() {
		t, c, err := o.SpanEstimate(0, S, mem)
		if err != nil {
			continue
		}
		fmt.Printf("%5d  %7.2f  %.6f\n", mem, t.Seconds(), c)
	}
	if !o.SpanFeasible(0, S) {
		fmt.Println(strings.Repeat("-", 24))
		fmt.Printf("%s does not fit a single lambda; use `ampsinf plan` for a partitioning\n", m.Name)
		return nil
	}
	if *traceOut == "" && *metricsOut == "" {
		return nil
	}
	return sweepMeasured(m, o, S, *traceOut, *metricsOut)
}

// sweepMeasured re-runs the sweep for real: one single-lambda eager job
// per memory block on a fresh simulated environment, traced and
// metered, so the estimate table above can be compared phase-by-phase
// against an actual execution in Perfetto.
func sweepMeasured(m *nn.Model, o *optimizer.Optimizer, segments int, traceOut, metricsOut string) error {
	var tracer *obs.Tracer
	if traceOut != "" {
		tracer = obs.NewTracer()
	}
	var mx *obs.Metrics
	if metricsOut != "" {
		mx = obs.NewMetrics()
	}
	w := nn.InitWeights(m, 1)
	img := workload.Images(m, 1, 7)[0]

	fmt.Println(strings.Repeat("-", 24))
	fmt.Println("measured (one eager job per memory block):")
	fmt.Println("memMB  time(s)  cost($)")
	for _, mem := range pricing.MemoryBlocks() {
		// One lambda at this block, with this block's estimates; a block
		// the model cannot run at is skipped, as in the table above.
		plan, err := o.PlanForConfig([]int{0, segments}, []int{mem})
		if err != nil {
			continue
		}

		meter := &billing.Meter{}
		if tracer != nil {
			meter.SetObserver(tracer.RecordCost)
		}
		platform := lambda.New(meter, perf.Default())
		platform.SetMetrics(mx)
		store := s3.New(s3.DefaultConfig(), meter)
		store.SetMetrics(mx)
		dep, err := coordinator.Deploy(coordinator.Config{
			Platform: platform, Store: store,
			NamePrefix:  fmt.Sprintf("sweep-%d", mem),
			SkipCompute: true, Tracer: tracer, Metrics: mx,
		}, m, w, plan)
		if err != nil {
			return err
		}
		rep, err := dep.RunEager(img)
		dep.Teardown()
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %7.2f  %.6f\n", mem, rep.Completion.Seconds(), rep.Cost)
	}
	return writeObservability(tracer, mx, traceOut, "", metricsOut)
}
