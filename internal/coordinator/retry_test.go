package coordinator

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/nn"
	"ampsinf/internal/nn/zoo"
	"ampsinf/internal/optimizer"
	"ampsinf/internal/perf"
	"ampsinf/internal/tensor"
)

// deployTinyFaulty deploys the multi-partition TinyCNN pipeline with a
// seeded fault injector installed on both the platform and the store,
// under the given retry policy.
func deployTinyFaulty(t *testing.T, rate float64, seed int64, policy RetryPolicy) (*env, *Deployment, *nn.Model, nn.Weights) {
	t.Helper()
	m := zoo.TinyCNN(0)
	plan, err := optimizer.Optimize(optimizer.Request{
		Model: m, Perf: perf.Default(), MaxLayersPerPartition: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := nn.InitWeights(m, 42)
	e := newEnv()
	inj := faults.New(faults.Uniform(rate, seed))
	e.platform.SetInjector(inj)
	e.store.SetInjector(inj)
	cfg := e.config()
	cfg.Retry = policy
	d, err := Deploy(cfg, m, w, plan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Teardown)
	return e, d, m, w
}

func resilientPolicy(seed int64) RetryPolicy {
	p := DefaultRetryPolicy()
	p.MaxAttempts = 8
	p.JitterSeed = seed
	return p
}

// Transient faults must be absorbed: every job completes with the
// bit-exact prediction, and the report records the recovery work.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	_, d, m, w := deployTinyFaulty(t, 0.3, 1234, resilientPolicy(1234))
	totalFaults := 0
	for j := 0; j < 10; j++ {
		in := randomInput(m, int64(j))
		rep, err := d.Run(in, RunOptions{})
		if err != nil {
			t.Fatalf("job %d not absorbed: %v", j, err)
		}
		want, _ := m.Forward(w, in)
		if !tensor.AllClose(want, rep.Output, 0) {
			t.Fatalf("job %d prediction wrong under faults", j)
		}
		totalFaults += rep.FaultsInjected
		if rep.FaultsInjected > 0 && rep.Retries == 0 {
			t.Fatalf("job %d absorbed %d faults with 0 recorded retries", j, rep.FaultsInjected)
		}
		if rep.Retries > 0 && rep.FaultsInjected == 0 && rep.BackoffWait == 0 {
			t.Fatalf("job %d: retries recorded nowhere", j)
		}
	}
	if totalFaults == 0 {
		t.Fatal("30% fault rate over 10 jobs injected nothing — injector not wired through")
	}
}

// Same seeds ⇒ the same faults, retries, backoffs and dollars, run
// over run, in fresh environments.
func TestRetryRunsDeterministic(t *testing.T) {
	type jobSummary struct {
		completion time.Duration
		cost       float64
		retries    int
		faults     int
		backoff    time.Duration
	}
	sweep := func() []jobSummary {
		_, d, m, _ := deployTinyFaulty(t, 0.25, 777, resilientPolicy(777))
		var out []jobSummary
		for j := 0; j < 6; j++ {
			rep, err := d.Run(randomInput(m, int64(j)), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, jobSummary{rep.Completion, rep.Cost, rep.Retries, rep.FaultsInjected, rep.BackoffWait})
		}
		return out
	}
	a, b := sweep(), sweep()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("job %d diverged across runs:\n%+v\n%+v", j, a[j], b[j])
		}
	}
}

// The zero-value policy preserves pre-fault-layer behaviour: the first
// injected fault aborts the job.
func TestZeroPolicyFailsFast(t *testing.T) {
	_, d, m, _ := deployTinyFaulty(t, 0.5, 99, RetryPolicy{})
	var failed bool
	for j := 0; j < 20 && !failed; j++ {
		if _, err := d.Run(randomInput(m, int64(j)), RunOptions{}); err != nil {
			failed = true
			if !faults.IsTransient(err) {
				t.Fatalf("aborting error lost its fault classification: %v", err)
			}
			if strings.Contains(err.Error(), "gave up after") {
				t.Fatalf("zero policy retried: %v", err)
			}
		}
	}
	if !failed {
		t.Fatal("50% fault rate with no retries never failed a job")
	}
}

// Deterministic (non-transient) failures must not be retried, even
// with retries enabled.
func TestNonTransientNotRetried(t *testing.T) {
	_, d, m, _ := deployTinyFaulty(t, 0, 1, resilientPolicy(1))
	d.parts[0].blob[len(d.parts[0].blob)/2] ^= 0xFF
	d.parts[0].weights = nil
	d.cfg.Platform.ResetWarm(d.parts[0].fnName)
	_, err := d.Run(randomInput(m, 50), RunOptions{Sequential: true})
	if err == nil {
		t.Fatal("corruption not detected")
	}
	if strings.Contains(err.Error(), "gave up after") {
		t.Fatalf("non-transient corruption was retried: %v", err)
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Faults cost money: the same workload under injected faults bills
// strictly more than the fault-free run, because failed attempts'
// GB-seconds, invocation fees and backoff-held storage all charge.
func TestFaultsInflateCost(t *testing.T) {
	run := func(rate float64) float64 {
		_, d, m, _ := deployTinyFaulty(t, rate, 4242, resilientPolicy(4242))
		var cost float64
		for j := 0; j < 8; j++ {
			rep, err := d.Run(randomInput(m, int64(j)), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cost += rep.Cost
		}
		return cost
	}
	clean, faulty := run(0), run(0.3)
	if faulty <= clean {
		t.Fatalf("faulty run $%.9f not dearer than clean $%.9f", faulty, clean)
	}
}

// backoff implements equal jitter: retry n waits within
// [w/2, w] for w = 200 ms·2^(n-1), capped at 10 s.
func TestBackoffWindows(t *testing.T) {
	policy := RetryPolicy{MaxAttempts: 8, JitterSeed: 3}
	d := &Deployment{cfg: Config{Retry: policy}}
	d.initRetryRng()
	cases := []struct {
		n    int
		want time.Duration // full window before jitter
	}{
		{1, 200 * time.Millisecond},
		{2, 400 * time.Millisecond},
		{3, 800 * time.Millisecond},
		{4, 1600 * time.Millisecond},
		{5, 3200 * time.Millisecond},
		{6, 6400 * time.Millisecond},
		{7, 10 * time.Second}, // capped
		{9, 10 * time.Second}, // stays capped
	}
	for _, c := range cases {
		got := d.backoff(c.n)
		if got < c.want/2 || got > c.want {
			t.Errorf("backoff(%d) = %v, want within [%v, %v]", c.n, got, c.want/2, c.want)
		}
	}
}

// A job whose deadline is already spent when an operation starts fails
// fast before any attempt runs. Such an operation retried nothing: it
// must not subtract one from the job's retry count.
func TestDeadlineFailFastRetriesNonNegative(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	in := randomInput(m, 1)
	check := func(name string, rep *Report, err error) {
		t.Helper()
		if !IsDeadlineExceeded(err) {
			t.Fatalf("%s: a 1 ns budget did not fail on the deadline: %v", name, err)
		}
		if rep.Retries != 0 {
			t.Fatalf("%s: fail-fast job reports %d retries, want 0", name, rep.Retries)
		}
	}
	// The input upload spends the whole budget, so the first partition's
	// invocation fails fast with zero attempts.
	for _, opts := range []RunOptions{
		{Deadline: time.Nanosecond},
		{Deadline: time.Nanosecond, Sequential: true},
		{Deadline: time.Nanosecond, Lean: true},
	} {
		rep, err := d.Run(in, opts)
		check(fmt.Sprintf("Run %+v", opts), rep, err)
	}
	for _, lean := range []bool{false, true} {
		sj, err := d.BeginStaged(in, RunOptions{Deadline: time.Nanosecond, Lean: lean})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sj.RunStage(sj.InputReady())
		check(fmt.Sprintf("staged lean=%v", lean), sj.Rep(), err)
	}
}
