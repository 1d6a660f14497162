// Command ampsinf is the framework's CLI: inspect models, compute
// partitioning/provisioning plans, and serve inference jobs on the
// simulated serverless platform.
//
// Its subcommands are models, summary, plan, infer, sweep and serve.
// `ampsinf <command> -h` lists a command's flags, each with the range
// its value must lie in and the setting it acts only with.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"ampsinf/internal/cli"
	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/cloud/pricing"
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

// command is one subcommand: register adds its flags to a set and
// returns the body that runs once they are parsed; a profiled command
// also takes -cpuprofile and -memprofile.
type command struct {
	name     string
	register func(*cli.Set) func() error
	profiled bool
}

var commands = []command{
	{"models", models, false},
	{"summary", summary, false},
	{"plan", plan, true},
	{"infer", infer, true},
	{"sweep", sweep, true},
	{"serve", serve, true},
}

func main() {
	err := run(os.Args[1:])
	switch {
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "usage: ampsinf <models|summary|plan|infer|sweep|serve> [flags]")
		os.Exit(2)
	case err != nil && !errors.Is(err, flag.ErrHelp):
		fmt.Fprintln(os.Stderr, "ampsinf:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("no such command")

// run parses a command line (the subcommand, then its flags) and runs it.
func run(args []string) error {
	for _, c := range commands {
		if len(args) > 0 && args[0] == c.name {
			f, body := c.flags()
			if err := f.Parse(args[1:]); err != nil {
				return err
			}
			return body()
		}
	}
	return errUsage
}

// flags registers c's flags on a fresh set and returns the body to run
// after Parse, wrapped in the profiles the flags ask for.
func (c command) flags() (*cli.Set, func() error) {
	f := cli.New("ampsinf " + c.name)
	body := c.register(f)
	if !c.profiled {
		return f, body
	}
	cpu := f.String("cpuprofile", "", "write a pprof CPU profile to this file")
	mem := f.String("memprofile", "", "write a pprof heap profile to this file on exit")
	return f, func() error {
		stop, err := prof.Start(*cpu, *mem)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "ampsinf:", err)
			}
		}()
		return body()
	}
}

func models(*cli.Set) func() error {
	return func() error {
		for _, n := range zoo.Names() {
			fmt.Println(n)
		}
		return nil
	}
}

func summary(f *cli.Set) func() error {
	model := f.String("model", "mobilenet", "zoo model name")
	return func() error {
		m, err := zoo.Build(*model, 0)
		if err != nil {
			return err
		}
		fmt.Print(m.Summary())
		fmt.Printf("Cut segments: %d (valid split points for serverless partitioning)\n", len(m.Segments()))
		return nil
	}
}

func plan(f *cli.Set) func() error {
	model := f.String("model", "resnet50", "zoo model name")
	slo := f.Duration("slo", 0, "response-time SLO (0 = cost-optimal)", cli.Min(0))
	maxLambdas := f.Int("max-lambdas", 16, "partition cap (K)", cli.Min(1))
	useBnB := f.Bool("bnb", false, "use the QCR+branch-and-bound MIQP path")
	return func() error {
		m, err := zoo.Build(*model, 0)
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
}

// exports holds the -trace, -spans and -metrics file names.
type exports struct{ trace, spans, metrics *string }

func exportFlags(f *cli.Set) exports {
	return exports{
		trace:   f.String("trace", "", "write a Chrome trace-event JSON (load in ui.perfetto.dev) to this file"),
		spans:   f.String("spans", "", "write the full span-tree JSON dump to this file"),
		metrics: f.String("metrics", "", "write a metrics snapshot JSON to this file"),
	}
}

func infer(f *cli.Set) func() error {
	model := f.String("model", "mobilenet", "zoo model name")
	slo := f.Duration("slo", 0, "response-time SLO", cli.Min(0))
	images := f.Int("images", 1, "number of images (more than one run as concurrent pipelines)", cli.Min(1))
	oneImage := cli.With("-images 1", func() bool { return *images == 1 })
	sequential := f.Bool("sequential", false, "strictly sequential invocations", oneImage)
	real := f.Bool("real", false, "run real forward passes (slow for big models)")
	timeline := f.Bool("timeline", false, "render an ASCII timeline of the job", oneImage)
	faultRate := f.Float64("fault-rate", 0, "inject platform faults at this overall rate", cli.Min(0), cli.Max(1))
	faulty := cli.With("-fault-rate", func() bool { return *faultRate > 0 })
	faultSeed := f.Int64("fault-seed", 1, "fault-injection and retry-jitter seed", faulty)
	retries := f.Int("retries", 0, "max attempts per operation (0 = default policy; 1 = no retries)", cli.Min(0), faulty)
	out := exportFlags(f)
	return func() error {
		m, err := zoo.Build(*model, 0)
		if err != nil {
			return err
		}
		opts := core.Options{}
		subOpts := core.SubmitOptions{SLO: *slo, Deploy: coordinator.Config{SkipCompute: !*real}}
		if *faultRate > 0 {
			retryFaults(&opts, &subOpts.Deploy, faults.Uniform(*faultRate, *faultSeed), *retries)
		}
		tracer, mx := observe(&opts, out)
		fw := core.NewFramework(opts)
		svc, err := fw.Submit(m, nn.InitWeights(m, 1), subOpts)
		if err != nil {
			return err
		}
		defer svc.Close()
		fmt.Printf("deployed %d partition(s), memories %v, planning took %v\n",
			svc.Partitions(), svc.Plan.Memories(), svc.PlanningTime.Round(time.Millisecond))

		imgs := workload.Images(m, *images, 7)
		if *images == 1 {
			rep, err := svc.Deployment().Run(imgs[0], coordinator.RunOptions{Sequential: *sequential})
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
			// Concurrent pipelines cannot share a warm container: each
			// image starts on fresh ones, and the batch completes with
			// its slowest image.
			var completion time.Duration
			var cost float64
			for i, img := range imgs {
				svc.ColdStart()
				rep, err := svc.Infer(img)
				if err != nil {
					return fmt.Errorf("image %d: %w", i, err)
				}
				completion = max(completion, rep.Completion)
				cost += rep.Cost
				if *real {
					fmt.Printf("image %d: predicted class %d\n", i, tensor.ArgMax(rep.Output))
				}
			}
			fmt.Printf("served %d images in parallel: completion %.2fs, total cost $%.6f\n",
				*images, completion.Seconds(), cost)
		}
		printBilling(fw.Meter())
		return out.write("jobs", tracer.Jobs(), mx)
	}
}

// retryFaults injects faults per cfg and retries them under the default
// policy, its jitter seeded like the faults and its attempts capped at
// retries when that is set.
func retryFaults(opts *core.Options, dep *coordinator.Config, cfg faults.Config, retries int) {
	opts.Faults = faults.New(cfg)
	dep.Retry = coordinator.DefaultRetryPolicy()
	dep.Retry.JitterSeed = cfg.Seed
	if retries > 0 {
		dep.Retry.MaxAttempts = retries
	}
}

// observe attaches the tracer and registry the exports need to opts.
func observe(opts *core.Options, out exports) (*obs.Tracer, *obs.Metrics) {
	if *out.trace != "" || *out.spans != "" {
		opts.Trace = obs.NewTracer()
	}
	if *out.metrics != "" {
		opts.Metrics = obs.NewMetrics()
	}
	return opts.Trace, opts.Metrics
}

func printBilling(meter *billing.Meter) {
	fmt.Println("billing breakdown:")
	bd := meter.Breakdown()
	keys := make([]string, 0, len(bd))
	for k := range bd {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-20s $%.6f\n", k, bd[k])
	}
}

// write writes the requested exports: roots (counted as noun) to the
// trace and span files, mx to the metrics file.
func (out exports) write(noun string, roots []*obs.Span, mx *obs.Metrics) error {
	if *out.trace != "" {
		if err := writeFile(*out.trace, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, roots)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace (%d %s, %d spans) to %s — load it in ui.perfetto.dev\n",
			len(roots), noun, obs.CountSpans(roots), *out.trace)
	}
	if *out.spans != "" {
		if err := writeFile(*out.spans, func(w io.Writer) error {
			return obs.WriteSpans(w, roots)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote span dump to %s\n", *out.spans)
	}
	if *out.metrics != "" {
		if err := writeFile(*out.metrics, mx.WriteJSON); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *out.metrics)
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

func serve(f *cli.Set) func() error {
	model := f.String("model", "mobilenet", "zoo model name")
	slo := f.Duration("slo", 0, "response-time SLO", cli.Min(0))
	requests := f.Int("requests", 100, "number of requests in the trace", cli.Min(1))
	pattern := f.String("pattern", "poisson", "arrival pattern: poisson, uniform or burst")
	is := func(p string) cli.Opt {
		return cli.With("-pattern "+p, func() bool { return *pattern == p })
	}
	rate := f.Float64("rate", 5, "arrival rate (requests/second)", cli.Above(0), is("poisson"))
	window := f.Duration("window", 30*time.Second, "window the arrivals spread over", cli.Min(0), is("uniform"))
	burstSize := f.Int("burst-size", 8, "simultaneous requests per burst", cli.Min(1), is("burst"))
	gap := f.Duration("gap", 5*time.Second, "gap between bursts", cli.Min(0), is("burst"))
	seed := f.Int64("seed", 7, "arrival, input, fault and jitter seed")
	limit := f.Int("limit", 0, "account concurrency limit (0 = platform default)", cli.Min(0))
	pipeline := f.Int("pipeline", 0, "overlap up to this many requests across partition stages (0 or 1 = sequential admission)")
	batch := f.Int("batch", 0, "coalesce up to this many queued requests per invocation (-1 = optimizer co-planned size, 0 or 1 = off)", cli.Min(-1))
	batching := func() bool { return *batch != 0 && *batch != 1 }
	sequential := f.Bool("sequential", false, "strictly sequential invocations per request",
		cli.With("-pipeline and -batch 0 or 1", func() bool { return *pipeline <= 1 && !batching() }))
	batchWindow := f.Duration("batch-window", 0, "how long a batch leader holds the queue open for followers (0 = 1s)", cli.With("-batch", batching))
	real := f.Bool("real", false, "run real forward passes: more wall-clock work, the same report")
	full := f.Bool("full", false, "print one line per request, not just the aggregates")
	faultRate := f.Float64("fault-rate", 0, "inject platform faults at this overall rate", cli.Min(0), cli.Max(1))
	faulty := cli.With("-fault-rate", func() bool { return *faultRate > 0 })
	var outageEvery *time.Duration
	domains := f.Int("domains", 0, "spread containers over this many failure domains (0 or 1 = no domains)", cli.Min(0),
		cli.With("-domain-outage-every", func() bool { return *outageEvery > 0 }))
	outageEvery = f.Duration("domain-outage-every", 0, "mean gap between whole-domain outage storms", cli.Min(0),
		cli.With("-domains 2 or more", func() bool { return *domains > 1 }))
	outageLength := f.Duration("domain-outage-length", 0, "duration of each domain outage (0 = domain-outage-every/4)", cli.Min(0),
		cli.With("-domain-outage-every", func() bool { return *outageEvery > 0 }))
	retries := f.Int("retries", 0, "max attempts per operation (0 = default policy; 1 = no retries)", cli.Min(0),
		cli.With("-fault-rate or -domain-outage-every", func() bool { return *faultRate > 0 || *outageEvery > 0 }))
	burstEvery := f.Duration("burst-every", 0, "overlay correlated fault storms with this mean gap", cli.Min(0), faulty)
	storms := cli.With("-burst-every", func() bool { return *burstEvery > 0 })
	burstLength := f.Duration("burst-length", 0, "storm duration (0 = burst-every/4)", cli.Min(0), storms)
	burstFactor := f.Float64("burst-factor", 10, "fault-rate multiplier while a storm is active", cli.Above(1), storms)
	deadline := f.Duration("deadline", 0, "per-request completion deadline; exceeding it fails the request fast (0 = none)")
	shed := f.Bool("shed", false, "shed requests predicted to miss the deadline before spending on them (requires -deadline)")
	tolerate := f.Bool("tolerate", false, "record per-request failures as outcomes instead of aborting the trace")
	hedge := f.Duration("hedge", 0, "hedge partition invocations that outlive this delay (0 = no hedging)", cli.Min(0))
	hedgePct := f.Float64("hedge-pct", 0, "derive the hedge delay from this percentile of past attempt durations (0 = fixed -hedge delay)")
	hedgeRate := f.Float64("hedge-rate", 0, "cap on the fraction of invocations that may hedge (0 = 0.25)",
		cli.With("-hedge or -hedge-pct", func() bool { return *hedge > 0 || *hedgePct > 0 }))
	breakerN := f.Int("breaker", 0, "trip a per-function circuit breaker after this many consecutive failures (0 = no breaker)", cli.Min(0))
	budget := f.Float64("budget", 0, "global retry budget: token-bucket cap shared by every retry and hedge (0 = unbudgeted)")
	budgetEarn := f.Float64("budget-earn", 0, "budget tokens earned per first-attempt success (0 = 0.1)",
		cli.With("-budget", func() bool { return *budget > 0 }))
	brownout := f.Bool("brownout", false, "enable the adaptive brownout ladder (watches -metrics-window windows; hedges off -> wider batches -> quantized fallback -> hard shed)")
	browning := cli.With("-brownout", func() bool { return *brownout })
	fallbackBits := f.Int("fallback-bits", 0, "pre-deploy a 4- or 8-bit quantized fallback plan the brownout ladder can swap onto (0 = none)", browning)
	brownoutP99 := f.Duration("brownout-p99", 0, "mark a window unhealthy when its completion p99 exceeds this (0 = trigger off)", browning)
	brownoutBad := f.Float64("brownout-bad", 0, "mark a window unhealthy above this bad-outcome fraction (0 = 0.2)", browning)
	httpAddr := f.String("http", "", "serve live telemetry on this address (/metrics, /metrics/stream, /spans); blocks after the run until interrupted")
	streamOut := f.String("stream", "", "write the NDJSON metrics window stream to this file")
	out := exportFlags(f)
	sampleRate := f.Float64("sample-rate", 0, "span-sampling rate in [0,1]: fraction of requests whose span trees are kept (0 = always-on tracing)",
		cli.With("-trace, -spans, -metrics, -stream or -http", func() bool {
			return *out.trace != "" || *out.spans != "" || *out.metrics != "" || *streamOut != "" || *httpAddr != ""
		}))
	metricsWindow := f.Duration("metrics-window", time.Second, "time-series window width", cli.Above(0),
		cli.With("-http, -stream or -brownout", func() bool { return *httpAddr != "" || *streamOut != "" || *brownout }))
	return func() error {
		m, err := zoo.Build(*model, 0)
		if err != nil {
			return err
		}
		opts := core.Options{}
		subOpts := core.SubmitOptions{
			SLO: *slo, FallbackBits: *fallbackBits,
			Deploy: coordinator.Config{
				SkipCompute: !*real,
				Hedge: coordinator.HedgePolicy{
					Percentile: *hedgePct, Delay: *hedge, MaxRate: *hedgeRate, JitterSeed: *seed,
				},
				Breaker: coordinator.BreakerPolicy{ConsecutiveFailures: *breakerN},
				Budget:  coordinator.BudgetPolicy{MaxTokens: *budget, EarnPerSuccess: *budgetEarn},
			},
		}
		if *faultRate > 0 || *domains > 1 {
			fcfg := faults.Uniform(*faultRate, *seed)
			fcfg.BurstEvery, fcfg.BurstLength, fcfg.BurstFactor = *burstEvery, *burstLength, *burstFactor
			fcfg.Domains, fcfg.DomainOutageEvery, fcfg.DomainOutageLength = *domains, *outageEvery, *outageLength
			retryFaults(&opts, &subOpts.Deploy, fcfg, *retries)
		}
		_, mx := observe(&opts, out)
		if mx == nil && *httpAddr != "" {
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
		svc, err := fw.Submit(m, nn.InitWeights(m, 1), subOpts)
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
		printBilling(fw.Meter())

		// Export the request-level span trees (queue waits + shifted job
		// trees on the serving clock), not the raw per-job trees.
		roots := rep.Traces()
		if err := out.write("requests", roots, mx); err != nil {
			return err
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
}

func sweep(f *cli.Set) func() error {
	model := f.String("model", "mobilenet", "zoo model name (must fit one lambda)")
	out := exports{
		trace:   f.String("trace", "", "serve one job per memory block and write a Chrome trace-event JSON to this file"),
		spans:   new(string),
		metrics: f.String("metrics", "", "serve one job per memory block and write a metrics snapshot JSON to this file"),
	}
	return func() error {
		m, err := zoo.Build(*model, 0)
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
			if *out.trace != "" || *out.metrics != "" {
				return fmt.Errorf("sweep: -trace and -metrics serve the whole model on one lambda, and %s does not fit one", m.Name)
			}
			return nil
		}
		if *out.trace == "" && *out.metrics == "" {
			return nil
		}
		return sweepMeasured(m, o, S, out)
	}
}

// sweepMeasured re-runs the sweep for real: one single-lambda eager job
// per memory block on a fresh simulated environment, traced and
// metered, so the estimate table above can be compared phase-by-phase
// against an actual execution in Perfetto.
func sweepMeasured(m *nn.Model, o *optimizer.Optimizer, segments int, out exports) error {
	var opts core.Options
	tracer, mx := observe(&opts, out)
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
		svc, err := core.NewFramework(opts).Deploy(m, w, plan, coordinator.Config{
			NamePrefix: fmt.Sprintf("sweep-%d", mem), SkipCompute: true,
		})
		if err != nil {
			return err
		}
		rep, err := svc.Infer(img)
		svc.Close()
		if err != nil {
			return err
		}
		fmt.Printf("%5d  %7.2f  %.6f\n", mem, rep.Completion.Seconds(), rep.Cost)
	}
	return out.write("jobs", tracer.Jobs(), mx)
}
