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
// evaluating each span's (time, cost) per memory block (grid.go), a
// parallel span-table build over the independent (a, b) cells, and a
// per-span lower envelope of the (time, cost) block frontier answering
// any λ in O(log L) instead of an O(L) rescan, built over the window of
// blocks a closed-form floor certifies and extended on demand. The original scans
// live on in reference_test.go and back the equivalence property tests.
package optimizer

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// spanChoice is the solved per-lambda subproblem for one candidate span.
type spanChoice struct {
	// capsOK reports that the span passes the λ-independent constraints
	// (4)–(6): deployment size, temporary storage and the layer cap.
	capsOK bool
	// feasible additionally requires at least one allowed memory block.
	feasible bool
	memIdx   int // λ=0 optimal index into blocks, or -1
	time     time.Duration
	cost     float64 // S_i without the position-dependent storage term
	// zeroObj is the λ=0 subproblem's objective as its solver reported it
	// at build time (the scan's minimal cost, or the branch-and-bound
	// objective), so λ=0 queries never re-solve.
	zeroObj float64
	// Span invariants for on-demand per-block evaluation: the working-set
	// floor (Eq. 7) and the kernel's inputs for the WeightScale-adjusted
	// profile.
	minMem int
	work   spanWork
	// env is the lower envelope of (time, cost) over the allowed blocks
	// of the window [start, next): next is the first block the span's
	// chain has not evaluated (len(blocks) once complete, as the dense
	// tables always are), and every block below start loses to the λ = 0
	// argmin at every λ (begin). reach extends the window upward when a
	// multiplier needs more (scan mode); cert is the largest multiplier
	// the floor has certified it for (−1 before the build's λ = 0).
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

// Optimizer precomputes span tables for one model and answers Optimize
// calls. Create with New. An Optimizer reuses internal scratch buffers
// across DP solves, and a query at a new multiplier may extend the
// queried spans' envelope windows in the table, so a single instance
// must not be used from multiple goroutines concurrently (constructing
// one Optimizer per Optimize call, as the package-level Optimize does, is
// always safe).
type Optimizer struct {
	req      Request
	segs     []nn.Segment
	blocks   []int
	profiler *perf.SpanProfiler
	grid     *blockGrid
	// table[a][b] is the per-lambda data for the span [a, b).
	table [][]spanChoice
	// open lists the feasible spans whose window is incomplete; reached
	// is the largest multiplier certify has extended them for.
	open    []*spanChoice
	reached float64
	// One scratch per pool worker; the serial paths use the first.
	scr []spanScratch
	// DP scratch reused across solves, and the number of solves run.
	dpBest   [][]float64
	dpPrev   [][]int
	dpChoice [][]int
	dpSolves int
}

// New profiles the model and precomputes the per-span decision tables.
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
	K := req.MaxLambdas
	if K > S {
		K = S
	}
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
// completes every span in the build.
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

// buildTable solves every candidate span. The cells are mutually
// independent — solveSpan reads only immutable state (request, blocks,
// profiler, grid) plus its worker's scratch, and each result is written
// to its own fixed index — so the build fans out over the worker pool
// and the table is identical to a serial build regardless of
// scheduling.
func (o *Optimizer) buildTable() {
	S := len(o.segs)
	o.table = make([][]spanChoice, S)
	for a := 0; a < S; a++ {
		o.table[a] = make([]spanChoice, S+1)
	}
	type cell struct{ a, b int }
	cells := make([]cell, 0, S*(S+1)/2)
	for a := 0; a < S; a++ {
		for b := a + 1; b <= S; b++ {
			cells = append(cells, cell{a, b})
		}
	}
	o.parallel(len(cells), func(i int, scr *spanScratch) {
		c := cells[i]
		o.table[c.a][c.b] = o.solveSpan(c.a, c.b, scr)
	})
	for _, c := range cells {
		if sc := &o.table[c.a][c.b]; sc.feasible && sc.next < len(o.blocks) {
			o.open = append(o.open, sc)
		}
	}
}

// certify extends every open span's window until it answers λ, on the
// worker pool, ahead of the serial DP's queries, when λ exceeds every
// multiplier asked before; below that the windows already answer. reach
// is a function of the span's own state, so the table afterwards does
// not depend on the worker count. Free once every span is complete.
func (o *Optimizer) certify(lambda float64) {
	if len(o.open) == 0 || lambda <= o.reached {
		return
	}
	o.reached = lambda
	o.parallel(len(o.open), func(i int, scr *spanScratch) { o.reach(o.open[i], lambda, scr) })
	o.open = slices.DeleteFunc(o.open, func(sc *spanChoice) bool { return sc.next == len(o.blocks) })
}

// solveSpan evaluates a candidate partition covering segments [a, b):
// feasibility (Eqs. 4–7), per-block T_i and S_i through the block-grid
// kernel, and the cost-minimal block (the λ=0 subproblem). Scan mode
// builds the envelope window that certifies λ = 0 (begin); BnB mode keeps
// the dense tables the branch-and-bound oracle consumes.
func (o *Optimizer) solveSpan(a, b int, scr *spanScratch) spanChoice {
	prof := o.profiler.Profile(a, b)
	// Quantization shrinks the shipped and loaded weight bytes; compute
	// is unchanged (weights are dequantized on load).
	prof.WeightsBytes = int64(float64(prof.WeightsBytes) * o.req.WeightScale)
	sc := spanChoice{memIdx: -1, zeroObj: math.Inf(1)}

	// Constraint (6): per-partition layer cap.
	if cap := o.req.MaxLayersPerPartition; cap > 0 && prof.Layers > cap {
		return sc
	}
	// Constraint (4): unzipped deployment = partition package + the
	// dependency layer D + handler F must fit the platform limit.
	p := &o.req.Perf
	q := o.req.Quota
	deploy := prof.DeployBytes(o.req.DescBytes) + int64(p.DepsMB*(1<<20))
	if deploy > int64(q.DeployLimitMB)<<20 {
		return sc
	}
	// Constraint (5): temporary storage during execution.
	if prof.TmpBytes() > int64(q.TmpLimitMB)<<20 {
		return sc
	}
	sc.capsOK = true

	// Constraint (7): prune memory blocks below the working-set floor —
	// a prefix of the ascending block grid, skipped without evaluation.
	sc.minMem = p.MinFeasibleMemoryMB(prof.WeightsBytes, q.MinMemoryMB, q.MemoryStepMB)
	transfer := o.transferTime(prof.InBytes) + o.transferTime(prof.OutBytes)
	sc.work = o.grid.work(prof.FLOPs, prof.WeightsBytes, transfer)

	L := len(o.blocks)
	lo := sort.SearchInts(o.blocks, sc.minMem)
	if o.req.UseBnB {
		sc.times = make([]time.Duration, L)
		sc.costs = make([]float64, L)
		sc.allow = make([]bool, L)
		sc.next = L
		o.grid.eval(&sc.work, lo, sc.times[lo:], sc.costs[lo:])
		for j := lo; j < L; j++ {
			sc.allow[j] = sc.times[j] <= q.Timeout
		}
		// BnB selects the λ=0 block through the full solver, exactly as
		// every later λ step will.
		sc.memIdx, sc.zeroObj = o.selectBlockBnB(&sc, 0, &scr.bnb)
	} else {
		o.begin(&sc, lo, scr)
	}
	sc.feasible = sc.memIdx >= 0
	if sc.feasible {
		var ok bool
		sc.time, sc.cost, ok = o.blockTimeCost(&sc, sc.memIdx)
		if !ok {
			sc.feasible, sc.memIdx = false, -1
		}
	}
	return sc
}

func (o *Optimizer) transferTime(bytes int64) time.Duration {
	sec := float64(bytes) / (o.req.BandwidthMBps * 1024 * 1024)
	return o.req.RequestLatency + time.Duration(sec*float64(time.Second))
}

// blockTimeCost returns (T_i, S_i) for block index j of a solved span,
// serving dense tables when the span retains them and otherwise running
// the kernel on that one block — the table build's own formula, hence
// the same bits.
func (o *Optimizer) blockTimeCost(sc *spanChoice, j int) (time.Duration, float64, bool) {
	if sc.times != nil {
		if j < 0 || j >= len(sc.allow) || !sc.allow[j] {
			return 0, 0, false
		}
		return sc.times[j], sc.costs[j], true
	}
	if !sc.capsOK || j < 0 || j >= len(o.blocks) || o.blocks[j] < sc.minMem {
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
// over the allowed one-hot x — the paper's Eq. (12)–(14). With UseBnB it
// constructs the explicit 0-1 quadratic program (quadratic term v·u·x²
// from price×compute, linear term from transfers and λ) and runs it
// through QCR + branch-and-bound; otherwise the span's lower envelope
// answers in O(log L), its window extended first if need be (reach). λ = 0
// returns, in either mode, the solution recorded at build time — for the
// scan its argmin, where exact cost ties resolve by block index.
func (o *Optimizer) selectBlock(sc *spanChoice, lambda float64) (int, float64) {
	if !sc.feasible {
		return -1, math.Inf(1)
	}
	if lambda == 0 {
		return sc.memIdx, sc.zeroObj
	}
	if o.req.UseBnB {
		return o.selectBlockBnB(sc, lambda, &o.scr[0].bnb)
	}
	return o.reach(sc, lambda, &o.scr[0])
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
func (o *Optimizer) begin(sc *spanChoice, lo int, scr *spanScratch) {
	L := len(o.blocks)
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
// covers it; certify hands each span to one worker.
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
// and solves it with QCR + branch-and-bound. The scratch belongs to the
// caller: the Optimizer's for λ steps, a worker's during the parallel
// table build.
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

// solveForLambda runs the boundary DP at multiplier λ, each span
// answering with its block minimizing cost + λ·sec.
func (o *Optimizer) solveForLambda(lambda float64) (dpResult, bool) {
	if lambda > 0 {
		o.certify(lambda)
	}
	return o.solveDP(func(sc *spanChoice) (int, float64) { return o.selectBlock(sc, lambda) })
}

// solveDP runs the boundary DP: best[b][k] = least sum of the values
// choose gives the spans of a cut of segments [0, b) into k partitions.
// The DP tables are Optimizer-owned scratch reused across solves.
func (o *Optimizer) solveDP(choose func(sc *spanChoice) (int, float64)) (dpResult, bool) {
	o.dpSolves++
	S := len(o.segs)
	K := o.req.MaxLambdas
	if K > S {
		K = S
	}
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
	// while the table is walked row by row.
	for a := 0; a < S; a++ {
		from, row := best[a], o.table[a]
		for b := a + 1; b <= S; b++ {
			sc := &row[b]
			if !sc.feasible {
				continue
			}
			j, val := choose(sc)
			if j < 0 {
				continue
			}
			to, toPrev, toChoice := best[b], prev[b], choice[b]
			for k := 1; k <= K; k++ {
				if from[k-1] == inf {
					continue
				}
				if cand := from[k-1] + val; cand < to[k] {
					to[k], toPrev[k], toChoice[k] = cand, a, j
				}
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

// fastest returns the plan of least Σ T_i. Time never rises with memory
// (begin), so a feasible span allows its largest block, its fastest: one
// kernel evaluation per span feeds a DP over Σ T_i. Each partition then
// takes the smallest block that fast, as a λ that swamps every cost does.
func (o *Optimizer) fastest() dpResult {
	last := len(o.blocks) - 1
	res, _ := o.solveDP(func(sc *spanChoice) (int, float64) {
		t, _, _ := o.blockTimeCost(sc, last)
		return last, float64(t) // whole ns: the sums are exact
	})
	for i := range res.memIdx {
		sc := &o.table[res.bounds[i]][res.bounds[i+1]]
		tmin, _, _ := o.blockTimeCost(sc, last)
		res.memIdx[i] = sort.Search(last, func(j int) bool {
			t, _, ok := o.blockTimeCost(sc, j)
			return ok && t <= tmin
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
func (o *Optimizer) Optimize() (*Plan, error) {
	res, ok := o.solveForLambda(0)
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
		res, _ := o.solveForLambda(lambda)
		if v := o.assemble(res, lambda); v.plan.EstTime > o.req.SLO {
			l = v
		} else {
			r = v
		}
	}
	best := r.plan
	for {
		lambda := (r.cost - l.cost) / (l.sec - r.sec)
		res, _ := o.solveForLambda(lambda)
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

// ExhaustiveMinCost enumerates every cut (all 2^(S-1) compositions,
// S ≤ 22) with the cost-optimal block per partition — the paper's
// Baseline 3 oracle — and returns the minimal total cost. Used to verify
// that the DP is exact.
func (o *Optimizer) ExhaustiveMinCost() (float64, bool) {
	S := len(o.segs)
	if S > 22 {
		return 0, false
	}
	best := math.Inf(1)
	found := false
	// Each bitmask over S-1 boundaries defines a cut.
	for mask := 0; mask < 1<<(S-1); mask++ {
		total := 0.0
		feasible := true
		a := 0
		parts := 0
		for b := 1; b <= S; b++ {
			if b < S && mask&(1<<(b-1)) == 0 {
				continue
			}
			sc := &o.table[a][b]
			if !sc.feasible {
				feasible = false
				break
			}
			total += sc.cost
			parts++
			a = b
		}
		if feasible && parts <= o.req.MaxLambdas && total < best {
			best = total
			found = true
		}
	}
	return best, found
}
