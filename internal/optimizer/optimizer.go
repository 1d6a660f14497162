// Package optimizer implements the core of AMPS-Inf (paper Sec. 3): given
// a model's segment profile and the platform quotas, it jointly chooses
//
//   - how many partitions to create and where to cut (the y variables),
//   - which memory block each partition's lambda gets (the one-hot x
//     variables),
//
// minimizing total monetary cost (Eq. 3) subject to the deployment-size
// limit (Eq. 4), the temporary-storage limit (Eq. 5), an optional
// per-partition layer cap (Eq. 6), memory-block feasibility pruning
// (Eq. 7) and a response-time SLO.
//
// The per-lambda memory choice is the paper's 0-1 quadratic program
// (Eq. 12–14), solved through the QCR/branch-and-bound machinery of
// internal/miqp (or an exact one-hot scan fast path — both agree, which a
// test asserts). The SLO couples lambdas across a cut; as in the paper's
// Lagrangian treatment, it is dualized with a multiplier λ on total time,
// making the objective additive per partition so the optimal cut for each
// λ is found exactly by dynamic programming over segment boundaries. The
// plans the DP returns are the vertices of the lower convex hull of the
// plans' (time, cost) points; Optimize walks that hull to the edge that
// straddles the SLO and bounds the gap it leaves (Plan.Gap).
//
// The hot path is engineered around precomputations whose outputs are
// byte-identical to the direct formulation (DESIGN.md §10): O(1)
// prefix-sum span profiling (perf.SpanProfiler), a block-grid kernel
// evaluating each span's (time, cost) per memory block (grid.go), spans
// solved only when a DP finds them live — on a cut whose closed-form
// floor sum stays within an achievable value — and a per-span lower
// envelope of the (time, cost) block frontier answering any λ in
// O(log L) instead of an O(L) rescan, built over the window of blocks
// the floor certifies and extended on demand. The original scans live
// on in reference_test.go and back the equivalence property tests.
package optimizer

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ampsinf/internal/cloud/pricing"
	"ampsinf/internal/miqp"
	"ampsinf/internal/nn"
	"ampsinf/internal/perf"
)

// Request describes one optimization job.
type Request struct {
	Model *nn.Model
	Perf  perf.Params
	// SLO is the response-time objective; 0 disables it (pure cost
	// minimization — the paper's Baseline 3).
	SLO time.Duration
	// MaxLambdas is K, the partition-count cap (default 16).
	MaxLambdas int
	// MaxLayersPerPartition is the paper's constraint (6); 0 disables it.
	MaxLayersPerPartition int
	// BandwidthMBps is B, the lambda↔S3 bandwidth (default 60).
	BandwidthMBps float64
	// RequestLatency is the fixed S3 round-trip latency (default 25 ms).
	RequestLatency time.Duration
	// DescBytes is the per-partition model-description size (default 256 KiB).
	DescBytes int64
	// UseBnB routes every per-lambda subproblem through the generic
	// QCR+branch-and-bound MIQP solver instead of the exact one-hot scan.
	UseBnB bool
	// Quota selects the platform limits; nil means the paper's 2020
	// quotas. Pass a pricing.Quota2021() to explore the updated platform
	// (10,240 MB in 1 MB increments).
	Quota *pricing.Quota
	// SearchStrideMB coarsens the memory-block search grid for
	// fine-grained quotas (0 = automatic: the quota's own step, but at
	// least 64 MB when the quota allows 1 MB increments).
	SearchStrideMB int
	// WeightScale scales partition weight bytes in the size and load-time
	// accounting (0 = 1.0). Weight quantization before deployment sets it
	// to modelfmt.CompressionScale(bits).
	WeightScale float64
}

func (r *Request) fillDefaults() {
	if r.MaxLambdas <= 0 {
		r.MaxLambdas = 16
	}
	if r.Quota == nil {
		q := pricing.Quota2020()
		r.Quota = &q
	}
	if r.SearchStrideMB <= 0 {
		r.SearchStrideMB = r.Quota.MemoryStepMB
		if r.SearchStrideMB < 64 {
			r.SearchStrideMB = 64
		}
	}
	if r.BandwidthMBps <= 0 {
		r.BandwidthMBps = 60
	}
	if r.RequestLatency <= 0 {
		r.RequestLatency = 25 * time.Millisecond
	}
	if r.DescBytes <= 0 {
		r.DescBytes = 256 << 10
	}
	if r.WeightScale <= 0 {
		r.WeightScale = 1
	}
}

// LambdaPlan is one partition's provisioning decision.
type LambdaPlan struct {
	// Segment span [SegLo, SegHi) and the layer range it covers.
	SegLo, SegHi     int
	LayerLo, LayerHi int
	MemoryMB         int
	Profile          perf.SegmentProfile
	// EstTime is T_i (Eq. 2): init + load + compute + S3 transfers.
	EstTime time.Duration
	// EstCost is S_i (Eq. 3): execution + storage + request/invocation fees.
	EstCost float64
}

// Plan is the optimizer's output configuration.
type Plan struct {
	Lambdas []LambdaPlan
	// EstTime is the end-to-end response time Σ T_i.
	EstTime time.Duration
	// EstCost is the total Σ S_i.
	EstCost float64
	// LagrangeMultiplier is the λ dualizing the SLO, in $ per second of
	// response time, at which the DP (storage term excluded) finds the plan
	// optimal: 0 if the cost-optimal plan meets the SLO, +Inf if no plan does.
	LagrangeMultiplier float64
	// MeetsSLO reports whether EstTime ≤ SLO (always true when SLO = 0).
	MeetsSLO bool
	// Gap bounds how much cheaper a plan meeting the SLO can be: none costs
	// less than EstCost·(1 − Gap); 0 certifies the plan, +Inf that none exists.
	Gap float64
}

// Bounds returns the plan's layer boundaries: [b0, b1, …, bk] with
// partition p covering layers [b_p, b_p+1).
func (p *Plan) Bounds() []int {
	if len(p.Lambdas) == 0 {
		return nil
	}
	bounds := make([]int, 0, len(p.Lambdas)+1)
	bounds = append(bounds, p.Lambdas[0].LayerLo)
	for _, l := range p.Lambdas {
		bounds = append(bounds, l.LayerHi)
	}
	return bounds
}

// Memories returns the per-partition memory blocks.
func (p *Plan) Memories() []int {
	ms := make([]int, len(p.Lambdas))
	for i, l := range p.Lambdas {
		ms[i] = l.MemoryMB
	}
	return ms
}

// spanChoice is one candidate span's per-lambda subproblem: the
// λ-independent record New keeps for every span, and the solve a DP runs
// the first time it finds the span live (solve).
type spanChoice struct {
	// capsOK reports that the span passes the λ-independent constraints
	// (4)–(6): deployment size, temporary storage and the layer cap.
	capsOK bool
	// feasible additionally requires an allowed memory block (record).
	feasible bool
	// solved reports that the λ = 0 subproblem below has been solved.
	solved bool
	memIdx int // λ=0 optimal index into blocks, or -1
	// zeroObj is the λ=0 subproblem's objective as its solver reported it
	// (the scan's minimal cost, or the branch-and-bound objective), so λ=0
	// queries never re-solve.
	zeroObj float64
	// Span invariants for on-demand per-block evaluation: the first block
	// at or above the working-set floor (Eq. 7) and the kernel's inputs for
	// the WeightScale-adjusted profile.
	lo   int
	work spanWork
	// The bound's inputs: the floor's least cost from lo up (−Inf without
	// a floor model) and the least time, the largest block's (begin).
	lb0  float64
	fast time.Duration
	// env is the lower envelope of (time, cost) over the allowed blocks
	// of the window [start, next): next is the first block the span's
	// chain has not evaluated (len(blocks) once complete, as the dense
	// tables always are), and every block below start loses to the λ = 0
	// argmin at every λ (begin). reach extends the window upward when a
	// multiplier needs more (scan mode); cert is the largest multiplier
	// the floor has certified it for.
	env         []envPoint
	start, next int
	cert        float64
	// Dense per-block tables, retained by BnB mode (the branch-and-bound
	// oracle consumes the explicit block set); times and costs are
	// meaningful where allow is set.
	times []time.Duration
	costs []float64
	allow []bool
}

// span is a feasible span [a, b) and its state in the current DP solve:
// its floor lb and its answer (j, val), j < 0 until the solve answers it.
type span struct {
	a, b, j int
	lb, val float64
}

// Optimizer records every span of one model and answers Optimize calls.
// Create with New. A DP solve solves the spans it finds live and reuses
// internal scratch buffers, so a single instance must not be used from
// multiple goroutines concurrently (constructing one Optimizer per
// Optimize call, as the package-level Optimize does, is always safe).
type Optimizer struct {
	req      Request
	segs     []nn.Segment
	blocks   []int
	profiler *perf.SpanProfiler
	grid     *blockGrid
	// table[a][b] is the per-lambda data for the span [a, b).
	table [][]spanChoice
	// spans lists the feasible spans in row-major order (a, then b,
	// ascending), the order the DP relaxes them in; todo, those a solve
	// has yet to answer.
	spans []span
	todo  []int
	// One scratch per pool worker; the serial paths use the first.
	scr []spanScratch
	// pre[b] and suf[a] are the least floor sums over cuts of [0, b) and
	// of [a, S); cut[b] is the last span of pre's cut of [0, b).
	pre, suf []float64
	cut      []int
	// DP scratch reused across solves; the number of solves run and of
	// spans solved.
	dpBest                [][]float64
	dpPrev                [][]int
	dpChoice              [][]int
	dpSolves, spansSolved int
}

// New profiles the model and records every span's λ-independent data.
func New(req Request) (*Optimizer, error) {
	o, err := newOptimizer(req)
	if err != nil {
		return nil, err
	}
	o.buildTable()
	return o, nil
}

// newOptimizer validates the request and prepares everything but the
// span table.
func newOptimizer(req Request) (*Optimizer, error) {
	if req.Model == nil {
		return nil, fmt.Errorf("optimizer: nil model")
	}
	// (NaN passes fillDefaults' ≤ 0 tests, and int64(w·±Inf) overflows.)
	if math.IsNaN(req.BandwidthMBps) || math.IsNaN(req.WeightScale) || math.IsInf(req.WeightScale, 0) {
		return nil, fmt.Errorf("optimizer: BandwidthMBps = %v, WeightScale = %v", req.BandwidthMBps, req.WeightScale)
	}
	req.fillDefaults()
	if err := req.Quota.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	if err := req.Perf.Validate(); err != nil {
		return nil, fmt.Errorf("optimizer: %w", err)
	}
	segs := req.Model.Segments()
	if len(segs) == 0 {
		return nil, fmt.Errorf("optimizer: model %q has no segments", req.Model.Name)
	}
	o := &Optimizer{
		req: req, segs: segs,
		blocks:   req.Quota.SearchBlocks(req.SearchStrideMB),
		profiler: perf.NewSpanProfiler(req.Model, segs),
	}
	o.grid = newBlockGrid(&o.req.Perf, o.req.Quota, o.blocks)
	o.scr = make([]spanScratch, runtime.GOMAXPROCS(0))
	S := len(segs)
	K := min(req.MaxLambdas, S)
	o.pre, o.suf, o.cut = make([]float64, S+1), make([]float64, S+1), make([]int, S+1)
	o.dpBest = make([][]float64, S+1)
	o.dpPrev = make([][]int, S+1)
	o.dpChoice = make([][]int, S+1)
	for b := 0; b <= S; b++ {
		o.dpBest[b] = make([]float64, K+1)
		o.dpPrev[b] = make([]int, K+1)
		o.dpChoice[b] = make([]int, K+1)
	}
	return o, nil
}

// Segments exposes the model's atomic segments.
func (o *Optimizer) Segments() []nn.Segment { return o.segs }

// blockRun is the most blocks a chain evaluates at once; the floor's
// hints (reach) usually stop a run sooner. A chain with no more than one
// run left finishes without a look at the floor: a grid that small (the
// 2020 quota's 46 blocks, the 2021 quota's 159 at its automatic stride)
// completes every span it solves.
const blockRun = 256

// spanScratch is one worker's reusable buffers: the kernel's outputs for
// one run of blocks, the envelope under extension (it grows to the
// largest envelope the worker has met and stays) and the BnB problem.
type spanScratch struct {
	ts    [blockRun]time.Duration
	costs [blockRun]float64
	env   []envPoint
	bnb   bnbScratch
}

// parallel calls fn(i, scratch) for every i in [0, n) from a pool of one
// worker per scratch. Each call may touch only immutable state, its
// worker's scratch and what index i owns: scheduling cannot show.
func (o *Optimizer) parallel(n int, fn func(i int, scr *spanScratch)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(len(o.scr), n); w++ {
		wg.Add(1)
		go func(scr *spanScratch) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i, scr)
			}
		}(&o.scr[w])
	}
	wg.Wait()
}

// buildTable records every candidate span. The cells are mutually
// independent — record reads only immutable state (request, blocks,
// profiler, grid) and each result is written to its own fixed index — so
// the rows fan out over the worker pool and the table is identical to a
// serial build regardless of scheduling.
func (o *Optimizer) buildTable() {
	S := len(o.segs)
	o.table = make([][]spanChoice, S)
	o.parallel(S, func(a int, _ *spanScratch) {
		o.table[a] = make([]spanChoice, S+1)
		for b := a + 1; b <= S; b++ {
			o.record(&o.table[a][b], a, b)
		}
	})
	o.spans = make([]span, 0, S*(S+1)/2)
	for a, row := range o.table {
		for b := a + 1; b <= S; b++ {
			if row[b].feasible {
				o.spans = append(o.spans, span{a: a, b: b})
			}
		}
	}
}

// record evaluates what a candidate partition covering segments [a, b)
// needs before any λ: the constraints (4)–(7), the kernel's inputs and
// the bound's. Time never rises with memory, so one kernel evaluation,
// of the largest block, decides whether any block runs within the
// timeout and gives the span's least time.
func (o *Optimizer) record(sc *spanChoice, a, b int) {
	prof := o.profiler.Profile(a, b)
	// Quantization shrinks the shipped and loaded weight bytes; compute
	// is unchanged (weights are dequantized on load).
	prof.WeightsBytes = int64(float64(prof.WeightsBytes) * o.req.WeightScale)
	*sc = spanChoice{memIdx: -1, zeroObj: math.Inf(1), lb0: math.Inf(-1), cert: -1}

	// Constraint (6): per-partition layer cap.
	if cap := o.req.MaxLayersPerPartition; cap > 0 && prof.Layers > cap {
		return
	}
	// Constraint (4): unzipped deployment = partition package + the
	// dependency layer D + handler F must fit the platform limit.
	p := &o.req.Perf
	q := o.req.Quota
	deploy := prof.DeployBytes(o.req.DescBytes) + int64(p.DepsMB*(1<<20))
	if deploy > int64(q.DeployLimitMB)<<20 {
		return
	}
	// Constraint (5): temporary storage during execution.
	if prof.TmpBytes() > int64(q.TmpLimitMB)<<20 {
		return
	}
	sc.capsOK = true

	// Constraint (7): prune memory blocks below the working-set floor —
	// a prefix of the ascending block grid, skipped without evaluation.
	sc.lo = sort.SearchInts(o.blocks, p.MinFeasibleMemoryMB(prof.WeightsBytes, q.MinMemoryMB, q.MemoryStepMB))
	transfer := o.transferTime(prof.InBytes) + o.transferTime(prof.OutBytes)
	sc.work = o.grid.work(prof.FLOPs, prof.WeightsBytes, transfer)
	last := len(o.blocks) - 1
	sc.fast, _, sc.feasible = o.blockTimeCost(sc, last)
	if f, ok := o.grid.model(&sc.work, 0); ok && sc.feasible {
		sc.lb0, _ = f.lowest(o.grid.memF[sc.lo], o.grid.memF[last])
	}
}

// solve runs the span's λ = 0 subproblem. Scan mode builds the envelope
// window that certifies λ = 0 (begin); BnB mode fills the dense tables
// the branch-and-bound oracle consumes and selects the λ = 0 block
// through the full solver, exactly as every later λ step will.
func (o *Optimizer) solve(sc *spanChoice, scr *spanScratch) {
	sc.solved = true
	if !o.req.UseBnB {
		o.begin(sc, scr)
		return
	}
	L := len(o.blocks)
	sc.times = make([]time.Duration, L)
	sc.costs = make([]float64, L)
	sc.allow = make([]bool, L)
	sc.next = L
	o.grid.eval(&sc.work, sc.lo, sc.times[sc.lo:], sc.costs[sc.lo:])
	for j := sc.lo; j < L; j++ {
		sc.allow[j] = sc.times[j] <= o.req.Quota.Timeout
	}
	sc.memIdx, sc.zeroObj = o.selectBlockBnB(sc, 0, &scr.bnb)
}

func (o *Optimizer) transferTime(bytes int64) time.Duration {
	sec := float64(bytes) / (o.req.BandwidthMBps * 1024 * 1024)
	return o.req.RequestLatency + time.Duration(sec*float64(time.Second))
}

// blockTimeCost returns (T_i, S_i) for block index j of a span,
// serving dense tables when the span retains them and otherwise running
// the kernel on that one block — the chains' own formula, hence
// the same bits.
func (o *Optimizer) blockTimeCost(sc *spanChoice, j int) (time.Duration, float64, bool) {
	if sc.times != nil {
		if j < 0 || j >= len(sc.allow) || !sc.allow[j] {
			return 0, 0, false
		}
		return sc.times[j], sc.costs[j], true
	}
	if !sc.capsOK || j < sc.lo || j >= len(o.blocks) {
		return 0, 0, false
	}
	var t [1]time.Duration
	var cost [1]float64
	o.grid.eval(&sc.work, j, t[:], cost[:])
	if t[0] > o.req.Quota.Timeout {
		return 0, 0, false
	}
	return t[0], cost[0], true
}

// selectBlock solves the per-lambda subproblem min_j cost_j + λ·time_j
// over the allowed one-hot x — the paper's Eq. (12)–(14) — solving the
// span's λ = 0 subproblem first if no query has (solve). With UseBnB it
// constructs the explicit 0-1 quadratic program (quadratic term v·u·x²
// from price×compute, linear term from transfers and λ) and runs it
// through QCR + branch-and-bound; otherwise the span's lower envelope
// answers in O(log L), its window extended first if need be (reach). λ = 0
// returns, in either mode, the solution solve recorded — for the scan its
// argmin, where exact cost ties resolve by block index.
func (o *Optimizer) selectBlock(sc *spanChoice, lambda float64, scr *spanScratch) (int, float64) {
	if !sc.feasible {
		return -1, math.Inf(1)
	}
	if !sc.solved {
		o.solve(sc, scr)
	}
	if lambda == 0 {
		return sc.memIdx, sc.zeroObj
	}
	if o.req.UseBnB {
		return o.selectBlockBnB(sc, lambda, &scr.bnb)
	}
	return o.reach(sc, lambda, scr)
}

// begin starts a scan-mode span's window and runs its chain until it
// certifies the λ = 0 argmin. It evaluates the block nearest the floor
// model's continuous λ = 0 minimiser and, if that block runs within the
// timeout, starts the window at the first block whose pointwise floor
// does not exceed its cost c. Every block below costs more than c — its
// floor does, or, the floor being convex, the floor of the block the
// search rejected last — so it costs strictly more than the λ = 0
// argmin and, having less memory, is no faster: it loses at every λ ≥ 0.
// Time never rises with memory (memF and share are non-decreasing in
// the block index, and for non-negative work and pressure —
// perf.Params.Validate — every quotient, product and truncation of the
// kernel is non-increasing in it), so a nearest block over the timeout
// makes every smaller one so and starts the window itself. Without a
// floor model, or with no more than one run of blocks from lo up, the
// window starts at lo.
func (o *Optimizer) begin(sc *spanChoice, scr *spanScratch) {
	L, lo := len(o.blocks), sc.lo
	sc.start, sc.next, sc.cert = lo, lo, -1
	if f, ok := o.grid.model(&sc.work, 0); ok && L-lo > blockRun {
		m := math.Sqrt(f.w * max(f.s, 0) * f.a / f.x)
		m = max(min(m, f.s, o.grid.memF[L-1]), o.grid.memF[lo])
		j := min(sort.SearchInts(o.blocks, int(m)), L-1)
		if j > lo && m-o.grid.memF[j-1] < o.grid.memF[j]-m {
			j--
		}
		o.grid.eval(&sc.work, j, scr.ts[:1], scr.costs[:1])
		sc.start = j
		if c := scr.costs[0]; scr.ts[0] <= o.req.Quota.Timeout {
			sc.start = lo + sort.Search(j-lo, func(i int) bool { return f.floorAt(o.grid.memF[lo+i]) <= c })
		}
		sc.next = sc.start
	}
	o.reach(sc, 0, scr)
}

// reach answers min_j cost_j + λ·sec_j for a scan-mode span from its
// envelope, first continuing the span's chain — kernel, then envBuild —
// over runs of blocks while the window cannot certify the answer: value
// ≤ the floor over every block from next up (floorModel.lowest). The
// floor lies under each later block's own cost + λ·sec as the scan
// computes it; on equality the scan's lowest-index tie-break keeps the
// window's block (DESIGN.md §10). At λ = 0 the value is the argmin the
// chain has tracked: that is how the build ends a window. Between looks
// at the floor the chain runs through the block at the model's minimiser
// and, once past it, to where the pointwise floor reaches the value. A
// certificate at λ₁ holds at every λ ≤ λ₁ — the window's answer at λ₁
// undercuts each later line by the floor's margin, and a later line is
// no steeper — so queries at or below cert skip the floor.
//
// reach mutates the span — the Optimizer's single-goroutine contract
// covers it; answer hands each span to one worker.
func (o *Optimizer) reach(sc *spanChoice, lambda float64, scr *spanScratch) (int, float64) {
	L := len(o.blocks)
	env, grown := sc.env, false
	until := 0
	for {
		j, val := sc.memIdx, sc.zeroObj
		if lambda > 0 && len(env) > 0 {
			j, val = envQuery(env, lambda)
		}
		certified := sc.next == L || lambda <= sc.cert
		if !certified && sc.next >= until {
			until = sc.next
			if L-sc.next <= blockRun {
				// One run finishes the chain for about what a look costs.
				until = L
			} else if f, ok := o.grid.model(&sc.work, lambda); ok {
				floor, m0 := f.lowest(o.grid.memF[sc.next], o.grid.memF[L-1])
				certified = val <= floor
				if k := sort.SearchFloat64s(o.grid.memF, m0); k > sc.next {
					until = k + 1
				} else if !math.IsInf(val, 1) {
					until = sc.next + sort.Search(L-sc.next, func(i int) bool { return f.floorAt(o.grid.memF[sc.next+i]) >= val })
				}
			}
		}
		if certified {
			if grown {
				// (make + copy into a local is the form the compiler
				// turns into one allocation without zeroing.)
				exact := make([]envPoint, len(env))
				copy(exact, env)
				sc.env, scr.env = exact, env[:0]
			}
			if lambda > sc.cert {
				sc.cert = lambda
			}
			return j, val
		}
		if !grown {
			env, grown = append(scr.env[:0], sc.env...), true
		}
		n := min(blockRun, L-sc.next)
		if until > sc.next {
			n = min(n, until-sc.next)
		}
		ts, costs := scr.ts[:n], scr.costs[:n]
		o.grid.eval(&sc.work, sc.next, ts, costs)
		env, sc.memIdx, sc.zeroObj = envBuild(env, sc.memIdx, sc.zeroObj, sc.next, ts, costs, o.req.Quota.Timeout)
		sc.next += n
	}
}

// bnbScratch holds the reusable buffers for the explicit binary-QP
// construction, so the hull walk's λ steps stop allocating a fresh
// problem per span per step.
type bnbScratch struct {
	idx  []int
	rows [][]float64
	qbuf []float64
	p    []float64
	ones []float64
}

// selectBlockBnB builds the explicit binary QP over the allowed blocks
// and solves it with QCR + branch-and-bound. The scratch is the
// caller's: a worker's, or the first worker's on the serial paths.
func (o *Optimizer) selectBlockBnB(sc *spanChoice, lambda float64, scr *bnbScratch) (int, float64) {
	idx := scr.idx[:0]
	for j, ok := range sc.allow {
		if ok {
			idx = append(idx, j)
		}
	}
	scr.idx = idx
	if len(idx) == 0 {
		return -1, math.Inf(1)
	}
	n := len(idx)
	if cap(scr.qbuf) < n*n {
		scr.qbuf = make([]float64, n*n)
		scr.rows = make([][]float64, 0, n)
		scr.p = make([]float64, n)
		scr.ones = make([]float64, n)
	}
	qbuf := scr.qbuf[:n*n]
	for i := range qbuf {
		qbuf[i] = 0
	}
	q := scr.rows[:0]
	pvec := scr.p[:n]
	ones := scr.ones[:n]
	for r, j := range idx {
		row := qbuf[r*n : (r+1)*n]
		// Quadratic diagonal: the v_j·u_j·x_j² execution-cost term of
		// Eq. (9). Transfers and the SLO multiplier enter linearly.
		execCost := sc.costs[j] - pricing.LambdaInvocation - pricing.S3GetRequest - pricing.S3PutRequest
		row[r] = execCost
		pvec[r] = lambda*sc.times[j].Seconds() +
			pricing.LambdaInvocation + pricing.S3GetRequest + pricing.S3PutRequest
		ones[r] = 1
		q = append(q, row)
	}
	scr.rows = q
	return solveOneHotQP(idx, q, pvec, ones)
}

// solveOneHotQP runs the constructed binary QP (Σx = 1) through
// QCR + branch-and-bound and maps the winning row back to its block
// index. Shared with the reference planner in reference_test.go — the
// solver sees identical values either way.
func solveOneHotQP(idx []int, q [][]float64, pvec, ones []float64) (int, float64) {
	pr := &miqp.Problem{
		N: len(idx), Q: q, P: pvec,
		Eq: []miqp.LinConstraint{{A: ones, B: 1}},
	}
	sol, err := miqp.Solve(pr, miqp.Options{})
	if err != nil || sol.Status != miqp.Optimal {
		return -1, math.Inf(1)
	}
	for r, j := range idx {
		if sol.X[r] > 0.5 {
			return j, sol.Objective
		}
	}
	return -1, math.Inf(1)
}

type dpResult struct {
	objective float64
	bounds    []int // segment boundaries, length k+1
	memIdx    []int
}

// liveTol is the relative slack of the live-span test, far above the
// roundings of the sums it compares (DESIGN.md §10). Under an achievable
// value ub a live span's floor sum is at most min(ub·(1 + liveTol),
// MaxFloat64): any finite sum when ub is +Inf.
const liveTol = 1e-9

// solveForLambda runs the boundary DP at multiplier λ over the live
// spans: those whose floor, with the least floor sums before and after
// it (pre, suf), stays within an achievable value (bound). Each answers
// with its block minimizing cost + λ·sec. A cut that ties or beats the
// DP's plan has a floor sum no higher, so leaving out the rest changes
// neither the plan nor any tie-break.
func (o *Optimizer) solveForLambda(lambda float64) (dpResult, bool) {
	o.dpSolves++
	limit := o.bound(lambda)
	live := o.todo[:0]
	for k, s := range o.spans {
		if o.pre[s.a]+s.lb+o.suf[s.b] <= limit {
			live = append(live, k)
		}
	}
	o.answer(live, lambda)
	return o.solveDP(func(s *span) (int, float64) { return s.j, s.val })
}

// bound clears every feasible span's answer, prices it at λ with a floor,
// runs the shortest paths over the floors (upper) and returns the largest
// floor sum a live span may have. A span's floor is first the constant
// lb0 + λ·fast: no block costs less than lb0 or runs faster than fast.
// At λ > 0, where that does not already rule the span out, the floor
// model's minimum at λ replaces it if higher, on the worker pool, and
// the paths run again.
func (o *Optimizer) bound(lambda float64) float64 {
	for k := range o.spans {
		s := &o.spans[k]
		sc := &o.table[s.a][s.b]
		s.lb, s.j = sc.lb0+lambda*sc.fast.Seconds(), -1
	}
	ub := o.upper(lambda)
	if lambda > 0 {
		const chunk = 256 // spans a worker prices at a time
		limit, n, hi := min(ub*(1+liveTol), math.MaxFloat64), len(o.spans), o.grid.memF[len(o.blocks)-1]
		o.parallel((n+chunk-1)/chunk, func(c int, _ *spanScratch) {
			for k := c * chunk; k < min(n, (c+1)*chunk); k++ {
				s := &o.spans[k]
				if o.pre[s.a]+s.lb+o.suf[s.b] > limit {
					continue
				}
				sc := &o.table[s.a][s.b]
				if f, ok := o.grid.model(&sc.work, lambda); ok {
					if lb, _ := f.lowest(o.grid.memF[sc.lo], hi); lb > s.lb {
						s.lb = lb
					}
				}
			}
		})
		ub = min(ub, o.upper(lambda))
	}
	return min(ub*(1+liveTol), math.MaxFloat64)
}

// upper runs the shortest paths over the floors — pre[b] over the cuts of
// [0, b), suf[a] over those of [a, S), uncapped — then answers the spans
// of pre's cut of [0, S) and returns that cut's value at λ: +Inf if it
// has more than K spans, or if there is none.
func (o *Optimizer) upper(lambda float64) float64 {
	S, inf := len(o.segs), math.Inf(1)
	pre, suf, cut := o.pre, o.suf, o.cut
	for i := range pre {
		pre[i], suf[i] = inf, inf
	}
	pre[0], suf[S] = 0, 0
	for k, s := range o.spans {
		if v := pre[s.a] + s.lb; v < pre[s.b] {
			pre[s.b], cut[s.b] = v, k
		}
	}
	for k := len(o.spans) - 1; k >= 0; k-- {
		if s := &o.spans[k]; s.lb+suf[s.b] < suf[s.a] {
			suf[s.a] = s.lb + suf[s.b]
		}
	}
	if pre[S] == inf {
		return inf
	}
	list := o.todo[:0]
	for b := S; b > 0; b = o.spans[cut[b]].a {
		list = append(list, cut[b])
	}
	if len(list) > o.req.MaxLambdas {
		return inf
	}
	o.answer(list, lambda)
	ub := 0.0
	for b := S; b > 0; b = o.spans[cut[b]].a {
		s := &o.spans[cut[b]]
		if s.j < 0 {
			return inf
		}
		ub += s.val
	}
	return ub
}

// answer answers the listed spans this solve has not, on the worker
// pool; selectBlock touches only its span and its worker's scratch.
func (o *Optimizer) answer(list []int, lambda float64) {
	todo := list[:0]
	for _, k := range list {
		if s := &o.spans[k]; s.j < 0 {
			if !o.table[s.a][s.b].solved {
				o.spansSolved++
			}
			todo = append(todo, k)
		}
	}
	o.parallel(len(todo), func(i int, scr *spanScratch) {
		s := &o.spans[todo[i]]
		s.j, s.val = o.selectBlock(&o.table[s.a][s.b], lambda, scr)
	})
	o.todo = todo
}

// solveDP runs the boundary DP: best[b][k] = least sum of the values
// choose gives the spans of a cut of segments [0, b) into k partitions
// (j < 0 leaves a span out). The DP tables are Optimizer-owned scratch
// reused across solves.
func (o *Optimizer) solveDP(choose func(s *span) (int, float64)) (dpResult, bool) {
	S, K := len(o.segs), len(o.dpBest[0])-1
	const inf = math.MaxFloat64
	best, prev, choice := o.dpBest, o.dpPrev, o.dpChoice
	for b := 0; b <= S; b++ {
		for k := 0; k <= K; k++ {
			best[b][k] = inf
			prev[b][k] = -1
		}
	}
	best[0][0] = 0
	// Push order: every span [a', a) ending at a has been relaxed before a
	// becomes a source, so best[a] is final here, and each (b, k) still
	// sees its candidates in ascending a — the pull order's tie-break —
	// while the spans are walked row by row.
	for i := range o.spans {
		s := &o.spans[i]
		j, val := choose(s)
		if j < 0 {
			continue
		}
		from, to, toPrev, toChoice := best[s.a], best[s.b], prev[s.b], choice[s.b]
		for k := 1; k <= K; k++ {
			if from[k-1] == inf {
				continue
			}
			if cand := from[k-1] + val; cand < to[k] {
				to[k], toPrev[k], toChoice[k] = cand, s.a, j
			}
		}
	}
	bestK, bestObj := -1, inf
	for k := 1; k <= K; k++ {
		if best[S][k] < bestObj {
			bestObj, bestK = best[S][k], k
		}
	}
	if bestK < 0 {
		return dpResult{}, false
	}
	// Reconstruct the cut.
	bounds := make([]int, bestK+1)
	mems := make([]int, bestK)
	b, k := S, bestK
	for k > 0 {
		a := prev[b][k]
		bounds[k] = b
		mems[k-1] = choice[b][k]
		b, k = a, k-1
	}
	bounds[0] = 0
	return dpResult{objective: bestObj, bounds: bounds, memIdx: mems}, true
}

// fastest returns the plan of least Σ T_i: a DP over every feasible
// span's least time, its largest block's (record), in whole ns, so the
// sums are exact. Each partition then takes the smallest block that
// fast, as a λ that swamps every cost does.
func (o *Optimizer) fastest() dpResult {
	o.dpSolves++
	last := len(o.blocks) - 1
	res, _ := o.solveDP(func(s *span) (int, float64) { return last, float64(o.table[s.a][s.b].fast) })
	for i := range res.memIdx {
		sc := &o.table[res.bounds[i]][res.bounds[i+1]]
		res.memIdx[i] = sort.Search(last, func(j int) bool {
			t, _, ok := o.blockTimeCost(sc, j)
			return ok && t <= sc.fast
		})
	}
	return res
}

// chordTol is how far, relatively, a DP value must fall below the chord
// to be a new hull vertex: far above the sums' roundings.
const chordTol = 1e-12

// Optimize computes the plan: the cost-minimal one if it meets the SLO,
// the fastest, flagged, if no plan does, and else the cheapest met on a
// walk of the plans' lower (time, cost) hull (DESIGN.md §10): λ ×8 from a
// start scaled to the λ = 0 plan brackets the SLO between vertices L and
// R, then the DP at the chord's slope replaces one or proves L–R an edge.
func (o *Optimizer) Optimize() (*Plan, error) { return o.optimize(o.solveForLambda) }

// optimize is Optimize over the DP solve given.
func (o *Optimizer) optimize(solve func(lambda float64) (dpResult, bool)) (*Plan, error) {
	res, ok := solve(0)
	if !ok {
		return nil, fmt.Errorf("optimizer: model %q has no feasible partitioning under the platform limits", o.req.Model.Name)
	}
	l := o.assemble(res, 0)
	if o.req.SLO <= 0 || l.plan.EstTime <= o.req.SLO {
		l.plan.MeetsSLO, l.plan.Gap = true, gap(l.plan.EstCost, l.cost)
		return l.plan, nil
	}
	if fast := o.assemble(o.fastest(), math.Inf(1)).plan; fast.EstTime > o.req.SLO {
		fast.Gap = math.Inf(1)
		return fast, nil
	}
	var r vertex
	for lambda := l.cost / l.sec / 1024; r.plan == nil; lambda *= 8 {
		res, _ := solve(lambda)
		if v := o.assemble(res, lambda); v.plan.EstTime > o.req.SLO {
			l = v
		} else {
			r = v
		}
	}
	best := r.plan
	for {
		lambda := (r.cost - l.cost) / (l.sec - r.sec)
		res, _ := solve(lambda)
		if res.objective >= (l.cost+lambda*l.sec)*(1-chordTol) {
			// L–R is a hull edge (L and R lie on the chord). Its chord at
			// T = SLO bounds every plan meeting the SLO: storage is ≥ 0.
			r.plan.LagrangeMultiplier = lambda
			best.MeetsSLO, best.Gap = true, gap(best.EstCost, l.cost+lambda*(l.sec-o.req.SLO.Seconds()))
			return best, nil
		}
		v := o.assemble(res, lambda)
		if v.plan.EstTime > o.req.SLO {
			l = v
			continue
		}
		r = v
		if v.plan.EstCost < best.EstCost {
			best = v.plan
		}
	}
}

// gap is the relative distance from cost down to a lower bound on it.
func gap(cost, bound float64) float64 { return max(0, (cost-bound)/cost) }

// vertex is an assembled plan with the point (sec, cost) the DP saw:
// Σ T_i in seconds and the storage-free Σ S_i, summed as the DP sums.
type vertex struct {
	plan      *Plan
	sec, cost float64
}

// assemble converts a DP result into a full Plan, adding the exact
// position-dependent S3 storage term (q_i·T_i·H of Eq. 3).
func (o *Optimizer) assemble(res dpResult, lambda float64) vertex {
	v := vertex{plan: &Plan{LagrangeMultiplier: lambda}}
	plan := v.plan
	var qBytes int64 // Σ outputs of previous partitions held in S3
	for i := 0; i+1 < len(res.bounds); i++ {
		a, b := res.bounds[i], res.bounds[i+1]
		sc := &o.table[a][b]
		j := res.memIdx[i]
		prof := o.profiler.Profile(a, b)
		lo, hi, _ := nn.SegmentRange(o.segs, a, b)
		t, base, _ := o.blockTimeCost(sc, j)
		cost := base +
			float64(qBytes)/(1<<30)*t.Seconds()*pricing.S3StoragePerGBSecond
		plan.Lambdas = append(plan.Lambdas, LambdaPlan{
			SegLo: a, SegHi: b, LayerLo: lo, LayerHi: hi,
			MemoryMB: o.blocks[j], Profile: prof,
			EstTime: t, EstCost: cost,
		})
		plan.EstTime += t
		plan.EstCost += cost
		v.sec += t.Seconds()
		v.cost += base
		qBytes += prof.OutBytes
	}
	return v
}

// OptimizeCostOnly ignores any SLO and returns the exact cost-minimal
// plan (λ = 0 dynamic program) — the paper's Baseline 3.
func (o *Optimizer) OptimizeCostOnly() (*Plan, error) {
	res, ok := o.solveForLambda(0)
	if !ok {
		return nil, fmt.Errorf("optimizer: model %q has no feasible partitioning under the platform limits", o.req.Model.Name)
	}
	v := o.assemble(res, 0)
	p := v.plan
	p.MeetsSLO, p.Gap = o.req.SLO <= 0 || p.EstTime <= o.req.SLO, gap(p.EstCost, v.cost)
	return p, nil
}

// Optimize is the one-shot convenience: New + Optimize.
func Optimize(req Request) (*Plan, error) {
	o, err := New(req)
	if err != nil {
		return nil, err
	}
	return o.Optimize()
}
