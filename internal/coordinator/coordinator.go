// Package coordinator implements the paper's Coordinator component: it
// turns an optimizer Plan into deployed lambda functions — splitting the
// model and its weights at the partition boundaries, attaching
// the dependency layer, and validating every platform limit — and then
// drives coordinated model serving with intermediate activations staged
// through S3. Partition handlers execute real forward passes, so a
// deployment's prediction is bit-identical to running the whole model.
package coordinator

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/cloud/stage"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/nn"
	"ampsinf/internal/obs"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// Config wires a deployment to its platform.
type Config struct {
	Platform *lambda.Platform
	// Store stages intermediate activations between partitions: S3 by
	// default, or any other stage.Store (e.g. the ElastiCache-style
	// internal/cloud/redis the paper's discussion proposes).
	Store stage.Store
	// NamePrefix namespaces function names and S3 keys (default "ampsinf").
	NamePrefix string
	// SkipCompute makes handlers account simulated compute time without
	// running the actual forward pass, emitting a zero tensor of the
	// correct shape instead. Simulated timings and billing are unchanged
	// (they depend only on sizes and FLOPs); the experiment harness uses
	// this to sweep full-resolution models quickly. Correctness of real
	// partitioned execution is covered by tests with SkipCompute off.
	SkipCompute bool
	// QuantizeBits quantizes each partition's weights to 8 or 4 bits
	// before packaging (0 = ship float32). Deployment packages shrink
	// 4-8x; handlers dequantize on load. The paper names this as the
	// answer to models whose single layers outgrow the platform limit.
	QuantizeBits int
	// Retry recovers jobs from transient platform faults (throttles,
	// crashes, timeouts, S3 503s — see internal/cloud/faults) with
	// exponential backoff. The zero value disables retries: the job
	// aborts on the first error.
	Retry RetryPolicy
	// Hedge launches speculative duplicate invocations of slow
	// partitions and takes the first success (see HedgePolicy). The
	// zero value disables hedging.
	Hedge HedgePolicy
	// Breaker short-circuits invocations of partition functions that
	// keep failing (see BreakerPolicy). The zero value disables
	// breakers.
	Breaker BreakerPolicy
	// Budget bounds retry amplification deployment-wide with a token
	// bucket shared across every job's retries and hedges (see
	// BudgetPolicy). The zero value disables the budget.
	Budget BudgetPolicy
	// Tracer, when set, collects every job's span tree with exact
	// per-span cost attribution (see internal/obs). Traced jobs are
	// serialized so concurrent jobs cannot cross-attribute charges; a
	// nil tracer costs nothing and leaves jobs fully concurrent.
	Tracer *obs.Tracer
	// Metrics, when set, receives job-level counters and histograms
	// (jobs, retries, absorbed faults, completion, per-phase time).
	Metrics *obs.Metrics
	// Series, when set, additionally streams windowed job/hedge/breaker
	// activity onto the simulated clock (see obs.TimeSeries). Nil is a
	// no-op.
	Series *obs.TimeSeries
}

// Deployment is a set of partition functions ready to serve.
type Deployment struct {
	cfg    Config
	model  *nn.Model
	plan   *optimizer.Plan
	parts  []*partition
	mu     sync.Mutex
	jobSeq int

	// Seeded jitter stream for retry backoff (see RetryPolicy), plus —
	// under the same lock — the hedge-delay stream and the
	// deployment-wide invocation/hedge counters behind the hedge rate
	// cap.
	retryMu      sync.Mutex
	retryRng     *rand.Rand
	hedgeRng     *rand.Rand
	invokesTotal int64
	hedgesTotal  int64
	// Global retry-budget balance (see BudgetPolicy) and the brownout
	// controller's runtime hedge override, both under retryMu.
	budgetTokens float64
	hedgeOff     bool
	// budgetDenied counts retries/hedges skipped by an empty bucket.
	budgetDenied int64

	// Pooled-job state (see job.go, lean.go): the free list of job
	// records and their sequence, the payload→job routing table the
	// handler fast path consults, and the per-batch zero-tensor encoding
	// cache.
	leanMu     sync.Mutex
	leanSeq    int
	leanFree   []*job
	leanRoutes map[string]leanRoute
	leanEnc    map[int]*leanEncoding

	// stablePut is the store's no-copy put extension, when supported.
	stablePut stage.StablePutter

	// jh holds the job-level telemetry handles, resolved once at Deploy.
	jh jobHandles
}

type partition struct {
	index    int
	fnName   string
	model    *nn.Model
	memoryMB int
	flops    int64
	weightsB int64

	// Warm-container cache: decoded weights survive across invocations of
	// the same (warm) function, as they would in a real runtime. Weights
	// from a float32 container are views of blob (modelfmt.DecodeWeights),
	// which lives as long as the partition; invocations share both and
	// write neither.
	mu      sync.Mutex
	weights nn.Weights
	blob    []byte // weights container, float32 or quantized; nil when no handler will decode it

	// Resilience state, guarded by the deployment's retryMu: the
	// success-latency history the hedge delay derives from, and the
	// function's circuit breaker (nil when breakers are disabled).
	hist latencyRing
	brk  *breaker
	// h holds the function-labelled resilience-event handles.
	h partHandles
}

// emptyWeights is the shared placeholder cached on a partition whose
// cold start skipped weight decoding (SkipCompute): non-nil so warm
// invocations skip the cold branch, never written by anyone.
var emptyWeights = nn.Weights{}

// parsePayload reads an invocation payload: the S3 key of the
// partition's input, whose prefix is the job id. The coordinator sends
// it, and so do Step-Functions-driven workflows, which chain each
// state's response — the key a partition staged its output under — into
// the next state's payload.
func parsePayload(payload []byte) (job, inputKey string, err error) {
	key := string(payload)
	i := strings.LastIndexByte(key, '/')
	if i <= 0 {
		return "", "", fmt.Errorf("payload %q is not an S3 key", key)
	}
	return key[:i], key, nil
}

// Deploy splits model+weights per plan, builds the deployment packages
// and creates one lambda function per partition. The plan must come from
// an optimizer run on the same model.
func Deploy(cfg Config, model *nn.Model, weights nn.Weights, plan *optimizer.Plan) (*Deployment, error) {
	if cfg.Platform == nil || cfg.Store == nil {
		return nil, fmt.Errorf("coordinator: config needs a platform and a store")
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "ampsinf"
	}
	if plan == nil || len(plan.Lambdas) == 0 {
		return nil, fmt.Errorf("coordinator: empty plan")
	}
	if err := nn.CheckWeights(model, weights); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := modelfmt.CheckQuantBits(cfg.QuantizeBits); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := cfg.Hedge.Validate(); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := cfg.Breaker.Validate(); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	if err := cfg.Budget.Validate(); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	blobs, sizes, err := packageWeights(model, weights, plan.Bounds(), cfg.QuantizeBits, cfg.SkipCompute)
	if err != nil {
		return nil, fmt.Errorf("coordinator: splitting weights: %w", err)
	}

	d := &Deployment{cfg: cfg, model: model, plan: plan}
	d.initRetryRng()
	d.budgetTokens = cfg.Budget.MaxTokens
	d.resolveJobHandles()
	d.stablePut, _ = cfg.Store.(stage.StablePutter)
	perfp := cfg.Platform.Perf()
	depsLayer := lambda.LayerRef{Name: "keras-deps", SizeBytes: int64(perfp.DepsMB * (1 << 20))}

	for i, lp := range plan.Lambdas {
		part, err := model.Partition(lp.LayerLo, lp.LayerHi)
		if err != nil {
			return nil, fmt.Errorf("coordinator: partition %d: %w", i, err)
		}
		p := &partition{
			index:    i,
			fnName:   fmt.Sprintf("%s-%s-p%d", cfg.NamePrefix, model.Name, i),
			model:    part,
			memoryMB: lp.MemoryMB,
			flops:    lp.Profile.FLOPs,
			weightsB: sizes[i], // what is shipped and loaded
			blob:     blobs[i],
		}
		p.h = d.resolvePartHandles(p.fnName)
		if cfg.Breaker.enabled() {
			p.brk = &breaker{pol: cfg.Breaker}
		}
		err = cfg.Platform.CreateFunction(lambda.FunctionConfig{
			Name:         p.fnName,
			MemoryMB:     lp.MemoryMB,
			PackageBytes: sizes[i] + perf.PackageOverheadBytes,
			Layers:       []lambda.LayerRef{depsLayer},
			Handler:      d.handler(p),
		})
		if err != nil {
			// Roll back functions created so far.
			for _, created := range d.parts {
				cfg.Platform.DeleteFunction(created.fnName)
			}
			return nil, fmt.Errorf("coordinator: creating function %q: %w", p.fnName, err)
		}
		d.parts = append(d.parts, p)
	}
	return d, nil
}

// handler builds the serving handler for one partition: cold starts
// initialize dependencies and deserialize the partition weights; every
// invocation reads its input activation from S3, runs the real forward
// pass, and either stages the output for the next partition or returns
// the final prediction.
func (d *Deployment) handler(p *partition) lambda.Handler {
	return func(ctx *lambda.Context, payload []byte) ([]byte, error) {
		rt, lean := d.leanRouteFor(p, payload)
		var jobID, inKey string
		if !lean {
			var err error
			if jobID, inKey, err = parsePayload(payload); err != nil {
				return nil, fmt.Errorf("partition %d: bad payload: %w", p.index, err)
			}
		}
		last := p.index == len(d.parts)-1
		p.mu.Lock()
		cached := p.weights
		p.mu.Unlock()
		if ctx.Cold() || cached == nil {
			ctx.InitDeps(p.weightsB)
			if err := ctx.LoadWeights(p.weightsB); err != nil {
				return nil, fmt.Errorf("partition %d: %w", p.index, err)
			}
			// Shared non-nil sentinel: under SkipCompute the weights are
			// never read, and a fresh empty map per cold start would be
			// the hot loop's only allocation.
			w := emptyWeights
			if !d.cfg.SkipCompute {
				var derr error
				if w, derr = modelfmt.DecodeWeights(p.model, p.blob); derr != nil {
					return nil, fmt.Errorf("partition %d: corrupt deployment: %w", p.index, derr)
				}
			}
			p.mu.Lock()
			p.weights = w
			p.mu.Unlock()
			cached = w
		}

		if lean {
			// Lean fast path (SkipCompute only): tensor contents are never
			// read, so the store traffic is size-only and the output is the
			// job's cached zero-tensor encoding. Charges, fault draws, /tmp
			// accounting and phase spans are identical to the path below.
			n, err := ctx.GetObjectSize(d.cfg.Store, rt.j.inputKey(p.index))
			if err != nil {
				return nil, &lazyError{"partition %d: reading input: %v", p.index, err}
			}
			ctx.TmpFree(n)
			ctx.Compute(ctx.Perf().BatchFLOPs(p.flops, rt.j.enc.batch), p.weightsB)
			outBytes := rt.j.enc.parts[p.index]
			if last {
				return outBytes, nil
			}
			if err := ctx.PutObjectStable(d.cfg.Store, rt.j.outKeys[p.index], outBytes); err != nil {
				return nil, &lazyError{"partition %d: staging output: %v", p.index, err}
			}
			return rt.j.payloads[p.index+1], nil
		}

		inBytes, err := ctx.GetObject(d.cfg.Store, inKey)
		if err != nil {
			return nil, fmt.Errorf("partition %d: reading input: %w", p.index, err)
		}
		in, err := modelfmt.DecodeTensor(inBytes)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", p.index, err)
		}
		ctx.TmpFree(int64(len(inBytes)))

		batch := in.Shape()[0]
		ctx.Compute(ctx.Perf().BatchFLOPs(p.flops, batch), p.weightsB)
		var out *tensor.Tensor
		if d.cfg.SkipCompute {
			shape := p.model.Output().OutShape.Clone()
			shape[0] = batch
			out = tensor.New(shape...)
		} else {
			out, err = p.model.Forward(cached, in)
			if err != nil {
				return nil, fmt.Errorf("partition %d: forward: %w", p.index, err)
			}
		}
		outBytes := modelfmt.EncodeTensor(out)
		if last {
			return outBytes, nil
		}
		outKey := fmt.Sprintf("%s/out%d", jobID, p.index)
		if err := ctx.PutObject(d.cfg.Store, outKey, outBytes); err != nil {
			return nil, fmt.Errorf("partition %d: staging output: %w", p.index, err)
		}
		return []byte(outKey), nil
	}
}

// Teardown deletes the deployment's functions. (Staged objects are not
// its business: each job deletes its own when it closes.)
func (d *Deployment) Teardown() {
	for _, p := range d.parts {
		d.cfg.Platform.DeleteFunction(p.fnName)
	}
}

// Partitions returns the number of deployed partitions.
func (d *Deployment) Partitions() int { return len(d.parts) }

// Platform returns the platform the deployment serves on, so
// orchestrators above the coordinator (e.g. internal/serving) can drive
// the simulated clock and inspect container pools.
func (d *Deployment) Platform() *lambda.Platform { return d.cfg.Platform }

// FunctionNames returns the deployed function names in pipeline order.
func (d *Deployment) FunctionNames() []string {
	names := make([]string, len(d.parts))
	for i, p := range d.parts {
		names[i] = p.fnName
	}
	return names
}

func (d *Deployment) nextJobID() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.jobSeq++
	return fmt.Sprintf("%s/jobs/%s/%d", d.cfg.NamePrefix, d.model.Name, d.jobSeq)
}

// packageWeights encodes per-partition weight containers — float32 when
// bits is 0, quantized to bits otherwise — and reports their sizes. A
// container is a snapshot: it shares no memory with weights. sizeOnly (a
// timing-only deployment, whose handlers never decode) leaves the blobs
// nil, their size being known without them.
func packageWeights(model *nn.Model, weights nn.Weights, bounds []int, bits int, sizeOnly bool) (blobs [][]byte, sizes []int64, err error) {
	blobs, sizes = make([][]byte, len(bounds)-1), make([]int64, len(bounds)-1)
	for p := range blobs {
		part, err := model.Partition(bounds[p], bounds[p+1])
		if err != nil {
			return nil, nil, err
		}
		sub := nn.SubsetWeights(model, weights, bounds[p], bounds[p+1])
		var n int
		if sizeOnly {
			n, err = modelfmt.WeightsSize(part, sub, bits)
		} else {
			blobs[p], err = modelfmt.EncodeWeights(part, sub, bits)
			n = len(blobs[p])
		}
		if err != nil {
			return nil, nil, fmt.Errorf("partition %d: %w", p, err)
		}
		sizes[p] = int64(n)
	}
	return blobs, sizes, nil
}
