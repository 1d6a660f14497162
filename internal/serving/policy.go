package serving

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ampsinf/internal/obs"
)

// PipelinePolicy selects the scheduler's staged executor: instead of
// running each admitted request as one whole job, the scheduler runs
// partitions as stages and overlaps partition i of request n with
// partition i+1 of request n−1 on warm containers. Depth bounds how many
// requests may occupy pipeline stages at once; the account concurrency
// limit still gates every admission. The zero value (and Depth 1) leaves
// the whole-job executor in place — which is not a one-slot pipeline:
// whole jobs have no depth gate and overlap phases inside the job.
type PipelinePolicy struct {
	// Depth is the maximum number of requests concurrently holding
	// pipeline stages (0 or 1 = no pipelining).
	Depth int
}

func (p PipelinePolicy) enabled() bool { return p.Depth > 1 }

// Validate rejects nonsensical pipeline policies before a serving run
// starts, mirroring ThrottlePolicy.Validate.
func (p PipelinePolicy) Validate() error {
	if p.Depth < 0 {
		return fmt.Errorf("pipeline policy: Depth %d is negative", p.Depth)
	}
	return nil
}

// BatchPolicy enables admission-side request batching: queued requests
// arriving within a seeded, bounded window are stacked on the tensor
// batch dimension and submitted as one batched invocation, whose shared
// cost is split across the member requests (splitCostInto) so the serving
// report's per-request charges still reconstruct the meter total
// exactly. Batched units always run on the staged executor, pipelined
// or not. The zero value (and MaxBatch 1) keeps one request per
// invocation.
type BatchPolicy struct {
	// MaxBatch is the most requests coalesced into one invocation
	// (0 or 1 = no batching).
	MaxBatch int
	// Window is how long a batch leader holds the queue open for
	// followers (default 1 s). The effective window is equal-jitter
	// drawn per batch: half deterministic, half from the seeded stream.
	Window time.Duration
	// JitterSeed seeds the window-jitter stream (0 behaves as seed 1).
	// It is independent of ThrottlePolicy.JitterSeed so enabling
	// batching never perturbs the throttle backoff draws.
	JitterSeed int64
}

func (p BatchPolicy) enabled() bool { return p.MaxBatch > 1 }

// Validate rejects nonsensical batch policies before a serving run
// starts.
func (p BatchPolicy) Validate() error {
	if p.MaxBatch < 0 {
		return fmt.Errorf("batch policy: MaxBatch %d is negative", p.MaxBatch)
	}
	if p.Window < 0 {
		return fmt.Errorf("batch policy: Window %v is negative", p.Window)
	}
	return nil
}

// SamplePolicy head-samples request span trees: each request's keep
// decision is drawn deterministically from (Seed, request index), so the
// same trace and seed always materialize the same trees. Dropped
// requests skip building their span tree entirely — the dominant
// per-request allocation under always-on tracing — while every cost
// stays exact (request charges are meter deltas, not span replays).
// Requests with noteworthy outcomes (shed, throttled, deadline, failed,
// hedge-won) are always sampled regardless of the rate. The zero value
// disables sampling: every tree is built, the legacy behaviour byte for
// byte — as does Rate 1, which keeps every tree by construction.
type SamplePolicy struct {
	// Rate is the fraction of requests whose span trees are kept,
	// in [0, 1]. 0 disables sampling (always-on tracing); 1 keeps
	// everything, bit-identical to disabled.
	Rate float64
	// Seed seeds the per-request keep draw (0 behaves as seed 1).
	Seed int64
}

func (p SamplePolicy) enabled() bool { return p.Rate > 0 && p.Rate < 1 }

// Validate rejects nonsensical sample policies before a serving run
// starts.
func (p SamplePolicy) Validate() error {
	if !(p.Rate >= 0 && p.Rate <= 1) {
		return fmt.Errorf("sample policy: Rate %v outside [0, 1]", p.Rate)
	}
	return nil
}

// sampler returns the policy's keep decider: nil when sampling is
// disabled (a nil obs.Sampler keeps everything).
func (p SamplePolicy) sampler() *obs.Sampler {
	if !p.enabled() {
		return nil
	}
	return obs.NewSampler(seedOr1(p.Seed), p.Rate)
}

// seedOr1 applies the policies' shared convention that a zero seed
// behaves as seed 1.
func seedOr1(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// defaultBatchWindow is the coalescing window when the policy leaves it
// zero: long enough for sub-second arrival gaps to batch, short enough
// not to dominate interactive deadlines.
const defaultBatchWindow = time.Second

// batchWindow draws one batch's effective coalescing window with equal
// jitter: half the configured window deterministic, half from the
// seeded stream.
func batchWindow(p BatchPolicy, rng *rand.Rand) time.Duration {
	w := p.Window
	if w <= 0 {
		w = defaultBatchWindow
	}
	return batchWindowFrom(w, rng.Float64())
}

// batchWindowFrom is the pure window computation behind batchWindow: an
// equal-jitter draw w/2 + u·w/2, clamped into [0, w]. It is hardened
// against extreme inputs — windows near the Duration range would
// overflow through the float round-trip (float64(MaxInt64) rounds up to
// 2^63), and a hostile u (negative, huge, NaN) must never escape the
// clamp — because the fuzz target feeds exactly those.
func batchWindowFrom(w time.Duration, u float64) time.Duration {
	if w <= 0 {
		return 0
	}
	f := float64(w)/2 + u*float64(w)/2
	if math.IsNaN(f) || f <= 0 {
		return 0
	}
	if f >= float64(math.MaxInt64) {
		return w
	}
	d := time.Duration(f)
	if d > w {
		return w
	}
	return d
}

// satAdd adds two non-negative durations, saturating at the Duration
// range instead of wrapping — an arrival near the end of time plus a
// window must never come out in the past.
func satAdd(a, b time.Duration) time.Duration {
	if b <= 0 {
		return a
	}
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// batchUnit is one admission unit after coalescing: a contiguous run of
// request indices [First, First+Size) sharing a single batched
// invocation, released to the admission queue at DispatchAt.
type batchUnit struct {
	// First is the leader's request index; Size the member count.
	First, Size int
	// DispatchAt is when the unit enters the admission queue: the last
	// member's arrival when the batch filled early, otherwise the end of
	// the leader's coalescing window.
	DispatchAt time.Duration
}

// coalesce groups an arrival trace into batch units. The leader of each
// batch is the earliest uncoalesced request; followers join while the
// batch has room and they arrive inside the leader's jittered window.
// Batches are contiguous in arrival order, so every request lands in
// exactly one unit and units dispatch in leader order. With batching
// disabled every request is its own unit at its own arrival.
func coalesce(arrivals []time.Duration, pol BatchPolicy, rng *rand.Rand) []batchUnit {
	units := make([]batchUnit, 0, len(arrivals))
	if !pol.enabled() {
		for i, a := range arrivals {
			units = append(units, batchUnit{First: i, Size: 1, DispatchAt: a})
		}
		return units
	}
	for i := 0; i < len(arrivals); {
		win := batchWindow(pol, rng)
		deadline := satAdd(arrivals[i], win)
		j := i + 1
		for j < len(arrivals) && j-i < pol.MaxBatch && arrivals[j] <= deadline {
			j++
		}
		u := batchUnit{First: i, Size: j - i}
		if u.Size == pol.MaxBatch {
			// Full batch dispatches the moment its last member arrives.
			u.DispatchAt = arrivals[j-1]
		} else {
			u.DispatchAt = deadline
		}
		units = append(units, u)
		i = j
	}
	return units
}

// splitCostInto splits one batched invocation's total charge into
// len(shares) ≥ 1 member shares, in caller-owned storage so a hot path
// can reuse one scratch slice, and returns shares. Their left-to-right
// sum reconstructs total exactly in IEEE arithmetic: the first n−1
// shares are total/n, the last is total minus their running sum. The
// running sum acc lies within [total/2, 2·total], so total−acc is exact
// by the Sterbenz lemma and acc+(total−acc) rounds back to total bit
// for bit.
func splitCostInto(shares []float64, total float64) []float64 {
	n := len(shares)
	if n == 1 {
		shares[0] = total
		return shares
	}
	even := total / float64(n)
	var acc float64
	for i := 0; i < n-1; i++ {
		shares[i] = even
		acc += even
	}
	shares[n-1] = total - acc
	return shares
}
