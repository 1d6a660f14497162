package coordinator

import (
	"fmt"
	"time"

	"ampsinf/internal/cloud/lambda"
	"ampsinf/internal/modelfmt"
	"ampsinf/internal/obs"
	"ampsinf/internal/tensor"
)

// job is the coordinator's one per-job record: every job — whole-job or
// staged, pooled or traced — is built by newJob, opened by begin, walks
// the partition chain one step per partition, each step settling its
// partition's turn as it ends, and ends in fail or finish. Every
// synchronous call into a job — Run, BeginStaged, RunStage, Finish —
// opens with enter and closes with leave, so every driver holds the
// tracer and prices the job the same way. Three decisions read the
// record instead of forking the code: a pooled job (RunOptions.Lean)
// comes off the deployment's free list and goes back in ReleaseReport,
// while any other job is garbage with its Report; a pooled job's cost
// recorder tr is nil, so every cost bracket is a no-op for it; and
// traces decides who builds a span tree.
type job struct {
	d *Deployment

	// Built once by newJob; a pooled job keeps them across runs.
	id       string
	inKey    string
	outKeys  []string // outKeys[i] = id + "/out" + i (last one: cleanup only)
	payloads [][]byte // payloads[i] = partition i's input key, inputKey(i)
	pooled   bool
	// tr receives the job's cost attribution: the deployment's tracer,
	// or nil for a pooled job, whose Cost is its meter delta and which
	// builds no tree for per-operation charges to land on. Every
	// obs.Tracer method is nil-safe, so brackets are written once.
	tr *obs.Tracer

	// Per-partition records, truncated by ReleaseReport.
	results     []*lambda.Result
	infos       []retryInfo
	turns       []turn            // partition i's place in the schedule
	partBuckets []*obs.CostBucket // partition i's settlement charges
	perLambda   []LambdaRun       // backing array of rep.PerLambda

	// enc is the cached zero-tensor encoding set a pooled job runs on
	// under SkipCompute (see lean.go), nil otherwise.
	enc *leanEncoding
	rep Report
	jobRun
}

// jobRun is the part of a job that begin resets for every run.
type jobRun struct {
	sched   schedule
	noTrace bool
	batch   int

	// The job's resilience context. In eager mode elapsed is the
	// sequential-chain sum, a conservative overestimate of the overlapped
	// schedule: the deadline gate may fail a job slightly early, never
	// late.
	deadline time.Duration
	elapsed  time.Duration
	// t0 is the platform clock at begin: the job start every turn's
	// offsets count from. A whole job's clock does not move while it
	// runs; a staged job's scheduler advances it to t0 + each stage's
	// start.
	t0 time.Duration

	// before is the meter total when the current call began; spend sums
	// the job's finished calls' brackets (see charged).
	before, spend float64

	upDur     time.Duration
	upInfo    retryInfo
	prevBytes int64 // accumulated intermediate bytes in the store
	next      int   // the next partition to invoke
	done      bool
}

func (j *job) deadlined() bool { return j.deadline > 0 }

// schedule is how a job lays its partitions' turns out in time; its
// String is the job's Report.Mode.
type schedule uint8

const (
	// scheduleSequential dispatches each partition when the one before
	// exits: the chain the paper prices (Eq. 2).
	scheduleSequential schedule = iota
	// scheduleEager dispatches every partition at job start; each
	// initializes at once, then polls the store for its input, billed
	// from dispatch to exit.
	scheduleEager
	// scheduleStaged takes each turn's start from an external scheduler
	// (StagedJob), which advances the platform clock to that start.
	scheduleStaged
)

var scheduleModes = [...]string{"sequential", "eager", "pipelined"}

func (s schedule) String() string { return scheduleModes[s] }

// turn is one partition's place in its job's schedule, as offsets from
// the job start: dispatched at start, its successful attempt's handler
// phases run from run, its work phases (read, compute, write) from work,
// and it exits at exit. step lays each turn out once; billing, storage
// holds, container occupancy, the job's completion and its span tree all
// read it.
type turn struct{ start, run, work, exit time.Duration }

// lay places a partition's turn on schedule s: dispatched at start, its
// input in the store at ready, lr its successful attempt's phases and ri
// its retry record. Every turn runs its handler once the dispatch and
// the retries' delay are over (a winning hedge's lead included: the
// winner was dispatched that much later). A sequential or staged turn's
// work follows its initialization; an eager turn starts work once both
// its initialization and its input are ready, the retries' delay later.
func (s schedule) lay(start, ready time.Duration, lr *LambdaRun, ri *retryInfo) turn {
	t := turn{start: start, run: start + invokeDispatchLatency + ri.delay()}
	t.work = t.run + lr.Init + lr.Load
	if s == scheduleEager {
		t.work = max(start+invokeDispatchLatency+lr.Init+lr.Load, ready) + ri.delay()
	}
	t.exit = t.work + lr.Read + lr.Compute + lr.Write
	return t
}

// newJob builds the record for job id: its keys, its invocation payloads
// and one slot per partition in every per-partition slice.
func (d *Deployment) newJob(id string) *job {
	n := len(d.parts)
	j := &job{
		d: d, id: id, inKey: id + "/input",
		outKeys:     make([]string, n),
		payloads:    make([][]byte, n),
		results:     make([]*lambda.Result, 0, n),
		infos:       make([]retryInfo, 0, n),
		turns:       make([]turn, 0, n),
		partBuckets: make([]*obs.CostBucket, 0, n),
		perLambda:   make([]LambdaRun, 0, n),
	}
	for i := 0; i < n; i++ {
		j.outKeys[i] = fmt.Sprintf("%s/out%d", id, i)
		j.payloads[i] = []byte(j.inputKey(i))
	}
	return j
}

// inputKey is the key partition i's input sits under — the job input,
// or the previous partition's output. It is the partition's invocation
// payload.
func (j *job) inputKey(i int) string {
	if i == 0 {
		return j.inKey
	}
	return j.outKeys[i-1]
}

// begin opens a job on the given schedule: it takes a record — pooled
// scratch or a fresh one — enters the caller's call (the caller leaves
// it) and uploads the input, retrying transient store faults. On error
// the returned job is already finalized and its Report carries the
// exact charges the upload billed. A request that cannot be served at
// all is turned away before anything is taken, uploaded or billed: the
// job that comes back is finished, its Report empty and its leave a
// no-op.
func (d *Deployment) begin(input *tensor.Tensor, sched schedule, opts RunOptions) (*job, error) {
	err := d.checkInput(input)
	if err == nil && opts.Deadline < 0 {
		err = fmt.Errorf("coordinator: negative deadline %v", opts.Deadline)
	}
	if err != nil {
		return &job{d: d, rep: Report{Mode: sched.String()}, jobRun: jobRun{done: true}}, err
	}
	var j *job
	if opts.Lean {
		j = d.acquirePooled(input)
	} else {
		j = d.newJob(d.nextJobID())
		j.tr = d.cfg.Tracer
	}
	j.jobRun = jobRun{sched: sched, noTrace: opts.NoTrace, batch: opts.Batch, deadline: opts.Deadline, t0: d.cfg.Platform.Now()}
	j.rep = Report{Mode: sched.String(), PerLambda: j.perLambda[:0], job: j}
	var data []byte
	if j.enc != nil {
		data = j.enc.input
	} else {
		data = modelfmt.EncodeTensor(input)
	}
	j.enter()
	dur, err := j.putWithRetry(data)
	d.recordRetries(&j.rep, &j.upInfo)
	if err != nil {
		j.fail()
		return j, fmt.Errorf("coordinator: uploading input: %w", err)
	}
	j.upDur = dur + j.upInfo.backoff
	j.elapsed = j.upDur
	return j, nil
}

// checkInput holds a request's input to the model's input shape: same
// rank, at least one example, every other dimension equal. Handlers
// index the batch dimension and size their outputs from it, so a
// malformed input must not reach them.
func (d *Deployment) checkInput(input *tensor.Tensor) error {
	want := d.model.InputShape
	if input == nil {
		return fmt.Errorf("coordinator: nil input, want shape %v", want)
	}
	got := input.Shape()
	if len(got) != len(want) || got[0] < 1 || !got[1:].Equal(want[1:]) {
		return fmt.Errorf("coordinator: input shape %v does not fit the model's %v (any batch ≥ 1)", got, want)
	}
	return nil
}

// step runs the job's next partition, dispatched at start, under the
// resilience policies, folds its retry record into the report, adds the
// turn — or, when it fails, the time the failed operation burned — to
// the job's committed time and, once it succeeds, settles the
// turn: it lays the turn out, bills — into the partition's own cost
// bucket — the execution an eager job deferred and the storage the
// intermediates stored at dispatch occupied for the turn, holds its
// container until the turn's exit and appends its LambdaRun. A job that
// fails later has billed every turn it completed.
func (j *job) step(start time.Duration) (*retryInfo, error) {
	d, pl := j.d, j.d.cfg.Platform
	i, stored := j.next, j.prevBytes
	res, ri, err := j.invokeWithRetry(d.parts[i])
	j.infos = append(j.infos, ri)
	info := &j.infos[i]
	d.recordRetries(&j.rep, info)
	if err != nil {
		j.elapsed += info.delay()
		return info, &lazyError{"coordinator: partition %d: %v", i, err}
	}
	j.elapsed += info.delay() + invokeDispatchLatency + res.Duration
	j.results = append(j.results, res)
	if i < len(d.parts)-1 {
		if n, ok := d.cfg.Store.Head(j.outKeys[i]); ok {
			j.prevBytes += n
		}
	}
	j.next++
	lr := phaseSplit(res)
	t := j.sched.lay(start, j.ready(i), &lr, info)
	j.turns = append(j.turns, t)
	b := j.tr.NewBucket()
	j.partBuckets = append(j.partBuckets, b)
	hold := res.Duration
	d.chargeInto(b, func() {
		if j.sched == scheduleEager {
			hold = t.exit - start - invokeDispatchLatency
			pl.SettleExecution(res.MemoryMB, hold)
		}
		d.cfg.Store.ChargeStorage(stored, hold)
	})
	// The container is busy until the turn exits, the retries' delay and
	// an eager turn's input poll included.
	pl.OccupyUntil(d.parts[i].fnName, res.ContainerID, j.t0+t.exit)
	j.rep.PerLambda = append(j.rep.PerLambda, lr)
	return info, nil
}

// ready is when partition i's input sits in the store: the end of the
// upload, or the exit of the turn before.
func (j *job) ready(i int) time.Duration {
	if i == 0 {
		return j.upDur
	}
	return j.turns[i-1].exit
}

// enter opens one synchronous call into the job: it takes the tracer's
// job lock, so concurrent traced jobs cannot cross-attribute charges,
// and opens the call's meter bracket. Calls of interleaved staged jobs
// never overlap on the meter (their scheduler runs them one at a time),
// so a call's delta belongs entirely to its job.
func (j *job) enter() {
	j.tr.BeginJob()
	j.before = j.d.meterTotal()
}

// leave closes the call enter opened: it banks the call's bracket in
// spend and releases the job lock, publishing the job's tree to the
// tracer, in completion order, if the call closed the job.
func (j *job) leave() {
	var root *obs.Span
	if j.done {
		root = j.rep.Trace
	} else {
		j.spend += j.d.meterTotal() - j.before
	}
	j.tr.EndJob(root)
}

// charged is the job's marginal charge on the shared meter so far: its
// finished calls' brackets plus the open one's. A whole job is one call
// (0 + x is x); a staged job sums its calls'.
func (j *job) charged() float64 {
	return j.spend + (j.d.meterTotal() - j.before)
}

// traces reports whether the job builds a span tree: never on pooled
// scratch; otherwise always when it failed (the tree carries the failed
// job's charges), and when it finished unless head sampling dropped it
// (NoTrace) — except that a job whose hedge won is always sampled.
// rep.HedgeWins is final by then: recordRetries folded every operation.
func (j *job) traces(failed bool) bool {
	return !j.pooled && (failed || !j.noTrace || j.rep.HedgeWins > 0)
}

// fail finalizes a job that cannot continue. Its failure trace collects
// every charge the job billed, so cost attribution stays exact.
func (j *job) fail() {
	rep := &j.rep
	rep.Cost = j.charged()
	rep.Elapsed = j.elapsed
	j.d.jh.jobsFailed.Inc(1)
	if j.traces(true) {
		rep.Trace = j.failureTrace()
	}
	j.close()
}

// finish publishes a job whose chain ran through, at the exit of its
// last turn: it reads the prediction off the last response (a job on
// cached encodings skips it: its last response is a recycled zero tensor
// nobody reads) and completes the job. A dropped job skips the whole
// tree build, the dominant per-job allocation.
func (j *job) finish() error {
	if j.enc == nil {
		out, err := modelfmt.DecodeTensor(j.results[len(j.results)-1].Response)
		if err != nil {
			j.fail()
			return fmt.Errorf("coordinator: decoding prediction: %w", err)
		}
		j.rep.Output = out
	}
	rep := &j.rep
	rep.Completion = j.turns[len(j.turns)-1].exit
	rep.Cost = j.charged()
	if j.traces(false) {
		rep.Trace = j.buildTrace()
	}
	j.d.recordJobMetrics(rep, j.sched)
	j.close()
	return nil
}

// close deletes the job's staged objects, once; the call's leave
// publishes its tree.
func (j *job) close() {
	if j.done {
		return
	}
	j.done = true
	for _, k := range j.outKeys {
		j.d.cfg.Store.Delete(k)
	}
	j.d.cfg.Store.Delete(j.inKey)
}

// acquirePooled checks a record out of the free list, building a fresh
// one — with a new unique job id, and a route per payload for the
// handler fast path — only when the list is empty.
func (d *Deployment) acquirePooled(input *tensor.Tensor) *job {
	d.leanMu.Lock()
	defer d.leanMu.Unlock()
	var j *job
	if n := len(d.leanFree); n > 0 {
		j = d.leanFree[n-1]
		d.leanFree[n-1] = nil
		d.leanFree = d.leanFree[:n-1]
	} else {
		d.leanSeq++
		j = d.newJob(fmt.Sprintf("%s/jobs/%s/lean%d", d.cfg.NamePrefix, d.model.Name, d.leanSeq))
		j.pooled = true
		if d.leanRoutes == nil {
			d.leanRoutes = make(map[string]leanRoute)
		}
		for i, payload := range j.payloads {
			d.leanRoutes[string(payload)] = leanRoute{j: j, part: i}
		}
	}
	if d.cfg.SkipCompute {
		j.enc = d.leanEncodingLocked(input)
	}
	return j
}

// ReleaseReport hands a pooled job's Report back to the deployment once
// the caller is done with it, recycling the job record (including every
// lambda.Result and the Report itself — none may be touched
// afterwards). Reports from other runs are left alone, so callers can
// release unconditionally.
func (d *Deployment) ReleaseReport(rep *Report) {
	if rep == nil || rep.job == nil || !rep.job.pooled {
		return
	}
	j := rep.job
	rep.job = nil
	for i, res := range j.results {
		j.results[i] = nil
		d.cfg.Platform.RecycleResult(res)
	}
	j.results = j.results[:0]
	j.infos = j.infos[:0]
	j.turns = j.turns[:0]
	j.partBuckets = j.partBuckets[:0]
	rep.Output = nil
	rep.Trace = nil
	rep.PerLambda = nil
	d.leanMu.Lock()
	j.enc = nil
	d.leanFree = append(d.leanFree, j)
	d.leanMu.Unlock()
}
