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
// the partition chain through invoke and settlePart, and ends in fail
// or complete. Three decisions read the record instead of forking the
// code: a pooled job (RunOptions.Lean) comes off the deployment's free
// list and goes back in ReleaseReport, while any other job is garbage
// with its Report; a pooled job's cost recorder tr is nil, so every
// cost bracket is a no-op for it; and traces decides who builds a span
// tree.
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
	results      []*lambda.Result
	infos        []retryInfo
	starts       []time.Duration   // staged: the scheduler's stage starts
	storedBefore []int64           // intermediate bytes in the store as partition i started
	partBuckets  []*obs.CostBucket // partition i's settlement charges
	perLambda    []LambdaRun       // backing array of rep.PerLambda

	// enc is the cached zero-tensor encoding set a pooled job runs on
	// under SkipCompute (see lean.go), nil otherwise.
	enc *leanEncoding
	rep Report
	jobRun
}

// jobRun is the part of a job that begin resets for every run.
type jobRun struct {
	eager bool // settle on the overlapped schedule
	// anchored marks a staged job, whose scheduler advances the platform
	// clock to each stage's true start: the clock already covers the
	// job's committed time, so breaker decisions must not add elapsed on
	// top of it again.
	anchored bool
	noTrace  bool
	batch    int

	// The job's resilience context. In eager mode elapsed is the
	// sequential-chain sum, a conservative overestimate of the overlapped
	// schedule: the deadline gate may fail a job slightly early, never
	// late.
	deadline time.Duration
	elapsed  time.Duration

	// A whole-job run points the tracer at rootBucket for charges outside
	// any operation's own bracket and restores prevSink when it closes.
	rootBucket, prevSink *obs.CostBucket
	// before is the meter total when the current synchronous call began;
	// spend sums a staged job's call brackets (see charged).
	before, spend float64

	upDur     time.Duration
	upInfo    retryInfo
	prevBytes int64 // accumulated intermediate bytes in the store
	next      int   // the next partition to invoke
	done      bool
}

func (j *job) deadlined() bool { return j.deadline > 0 }

// newJob builds the record for job id: its keys, its invocation payloads
// and one slot per partition in every per-partition slice.
func (d *Deployment) newJob(id string) *job {
	n := len(d.parts)
	j := &job{
		d: d, id: id, inKey: id + "/input",
		outKeys:      make([]string, n),
		payloads:     make([][]byte, n),
		results:      make([]*lambda.Result, 0, n),
		infos:        make([]retryInfo, 0, n),
		starts:       make([]time.Duration, 0, n),
		storedBefore: make([]int64, 0, n),
		partBuckets:  make([]*obs.CostBucket, 0, n),
		perLambda:    make([]LambdaRun, 0, n),
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

// begin opens a job in the given mode ("sequential", "eager" or
// "pipelined"): it takes a record — pooled scratch or a fresh one — and
// uploads the input, retrying transient store faults. On error the
// returned job is already finalized and its Report carries the exact
// charges the upload billed. A request that cannot be served at all is
// turned away before anything is taken, uploaded or billed: the job that
// comes back is finished and its Report empty.
func (d *Deployment) begin(input *tensor.Tensor, mode string, opts StagedOptions) (*job, error) {
	err := d.checkInput(input)
	if err == nil && opts.Deadline < 0 {
		err = fmt.Errorf("coordinator: negative deadline %v", opts.Deadline)
	}
	if err != nil {
		return &job{d: d, rep: Report{Mode: mode}, jobRun: jobRun{done: true}}, err
	}
	var j *job
	if opts.Lean {
		j = d.acquirePooled(input)
	} else {
		j = d.newJob(d.nextJobID())
		j.tr = d.cfg.Tracer
	}
	j.jobRun = jobRun{
		eager: mode == "eager", anchored: mode == "pipelined",
		noTrace: opts.NoTrace, batch: opts.Batch,
		deadline: opts.Deadline,
	}
	j.rep = Report{Mode: mode, PerLambda: j.perLambda[:0], job: j}
	var data []byte
	if j.enc != nil {
		data = j.enc.input
	} else {
		data = modelfmt.EncodeTensor(input)
	}
	if !j.anchored {
		// A whole-job run is one synchronous call: it holds the tracer's
		// job lock from here to close, so concurrent traced jobs cannot
		// cross-attribute charges. Staged jobs interleave on one scheduler
		// goroutine — holding the lock across stages would deadlock it —
		// so every billed operation brackets its own sink instead.
		j.tr.BeginJob()
		j.rootBucket = j.tr.NewBucket()
		j.prevSink = j.tr.SetSink(j.rootBucket)
	}
	j.before = d.meterTotal()
	dur, err := j.putWithRetry(data)
	if j.anchored {
		j.spend = d.meterTotal() - j.before
	}
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

// invoke runs the job's next partition under the resilience policies,
// folds its retry record into the report and advances the chain.
func (j *job) invoke() (*lambda.Result, *retryInfo, error) {
	d := j.d
	i := j.next
	j.storedBefore = append(j.storedBefore, j.prevBytes)
	res, ri, err := j.invokeWithRetry(d.parts[i])
	j.infos = append(j.infos, ri)
	info := &j.infos[i]
	d.recordRetries(&j.rep, info)
	if err != nil {
		return nil, info, &lazyError{"coordinator: partition %d: %v", i, err}
	}
	j.results = append(j.results, res)
	if i < len(d.parts)-1 {
		if n, ok := d.cfg.Store.Head(j.outKeys[i]); ok {
			j.prevBytes += n
		}
	}
	j.next++
	return res, info, nil
}

// settlePart closes partition i's turn once its schedule is known: it
// bills — into the partition's own cost bucket — the execution an eager
// job deferred and the storage its upstream intermediates occupied for
// hold, then appends the partition's LambdaRun. lr arrives with the
// phase split filled in.
func (j *job) settlePart(i int, lr LambdaRun, hold, billed time.Duration) {
	d := j.d
	res, info := j.results[i], &j.infos[i]
	b := j.tr.NewBucket()
	j.partBuckets = append(j.partBuckets, b)
	prev := j.tr.SetSink(b)
	if j.eager {
		d.cfg.Platform.SettleExecution(res.MemoryMB, billed)
	}
	d.cfg.Store.ChargeStorage(j.storedBefore[i], hold)
	j.tr.SetSink(prev)
	lr.FunctionName = d.parts[i].fnName
	lr.MemoryMB = res.MemoryMB
	lr.Cold = res.ColdStart
	lr.Active = res.Duration
	lr.Billed = billed
	lr.Attempts = info.attempts
	lr.InjectedFaults = info.faults
	lr.BackoffWait = info.backoff
	lr.Wasted = info.wasted
	j.rep.PerLambda = append(j.rep.PerLambda, lr)
}

// decodeOutput reads the prediction off the last response. A job on
// cached encodings skips it: its last response is a recycled zero
// tensor nobody reads.
func (j *job) decodeOutput() error {
	if j.enc != nil {
		return nil
	}
	out, err := modelfmt.DecodeTensor(j.results[len(j.results)-1].Response)
	if err != nil {
		j.fail()
		return fmt.Errorf("coordinator: decoding prediction: %w", err)
	}
	j.rep.Output = out
	return nil
}

// charged is the job's marginal charge on the shared meter so far. A
// whole-job run is one synchronous call, so the one bracket from begin
// is exact. Staged calls from interleaved jobs never overlap on the
// meter (the scheduler runs them one at a time), so the delta of a call
// belongs entirely to its job, and a staged job sums its calls'.
func (j *job) charged() float64 {
	if j.anchored {
		return j.spend
	}
	return j.d.meterTotal() - j.before
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
// every charge the job billed, so cost attribution stays exact; a staged
// job reports that trace's cost (under a tracer the span replay, else
// its spend), a whole-job run its meter delta.
func (j *job) fail() {
	rep := &j.rep
	rep.Cost = j.charged()
	rep.Elapsed = j.elapsed
	j.d.jh.jobsFailed.Inc(1)
	if j.traces(true) {
		rep.Trace = j.failureTrace()
		if j.anchored {
			if j.tr == nil {
				rep.Trace.Cost = j.spend
			}
			rep.Cost = rep.Trace.Cost
		}
	}
	j.close()
}

// complete publishes a job whose chain ran through. A dropped job skips
// the whole tree build, the dominant per-job allocation. A staged job
// under a tracer reports the replay sum of its tree's cost events, so
// serving-level cost splitting reconstructs it exactly (an unsampled
// replay could associate the same charges in a different order).
func (j *job) complete() {
	rep := &j.rep
	rep.Cost = j.charged()
	if j.traces(false) {
		rep.Trace = j.buildTrace()
		if j.anchored && j.tr != nil {
			rep.Cost = obs.SumCosts(rep.Trace)
		}
	}
	j.d.recordJobMetrics(rep)
	j.close()
}

// close deletes the job's staged objects and publishes its tree to the
// tracer in completion order, once. A whole-job run releases the job
// lock it has held since begin; a staged job takes and releases it back
// to back.
func (j *job) close() {
	if j.done {
		return
	}
	j.done = true
	for _, k := range j.outKeys {
		j.d.cfg.Store.Delete(k)
	}
	j.d.cfg.Store.Delete(j.inKey)
	if j.anchored {
		j.tr.BeginJob()
	} else {
		j.tr.SetSink(j.prevSink)
	}
	j.tr.EndJob(j.rep.Trace)
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
	j.starts = j.starts[:0]
	j.storedBefore = j.storedBefore[:0]
	j.partBuckets = j.partBuckets[:0]
	rep.Output = nil
	rep.Trace = nil
	rep.PerLambda = nil
	d.leanMu.Lock()
	j.enc = nil
	d.leanFree = append(d.leanFree, j)
	d.leanMu.Unlock()
}
