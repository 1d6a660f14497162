package coordinator

import (
	"sort"
	"testing"
)

// Invariant: overlapping initialization with upstream execution can
// only help — for any input, eager completion ≤ sequential completion
// from the same (cold) container state.
func TestPropertyEagerNeverSlower(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	for seed := int64(0); seed < 5; seed++ {
		in := randomInput(m, 100+seed)
		for _, name := range d.FunctionNames() {
			d.cfg.Platform.ResetWarm(name)
		}
		seq, err := d.Run(in, RunOptions{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range d.FunctionNames() {
			d.cfg.Platform.ResetWarm(name)
		}
		eager, err := d.Run(in, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if eager.Completion > seq.Completion {
			t.Fatalf("seed %d: eager %v slower than sequential %v", seed, eager.Completion, seq.Completion)
		}
	}
}

// Invariant: every job costs money. A zero or negative marginal cost
// means billing was skipped or double-credited somewhere.
func TestPropertyCostStrictlyPositive(t *testing.T) {
	for _, mode := range []string{"sequential", "eager"} {
		_, d, m, _ := deployTinySplit(t)
		for seed := int64(0); seed < 4; seed++ {
			in := randomInput(m, 200+seed)
			var (
				rep *Report
				err error
			)
			if mode == "sequential" {
				rep, err = d.Run(in, RunOptions{Sequential: true})
			} else {
				rep, err = d.Run(in, RunOptions{})
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cost <= 0 {
				t.Fatalf("%s seed %d: job cost $%v not strictly positive", mode, seed, rep.Cost)
			}
		}
	}
}

// Invariant: Report.Cost is exactly the job's marginal charge — the
// sum over billing categories of (after − before), whatever mix of
// lambda execution, invocation fees, S3 requests and storage the job
// produced.
func TestPropertyCostMatchesMeterDeltas(t *testing.T) {
	e, d, m, _ := deployTinySplit(t)
	for seed := int64(0); seed < 4; seed++ {
		before := e.meter.Breakdown()
		var (
			rep *Report
			err error
		)
		if seed%2 == 0 {
			rep, err = d.Run(randomInput(m, 300+seed), RunOptions{})
		} else {
			rep, err = d.Run(randomInput(m, 300+seed), RunOptions{Sequential: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		after := e.meter.Breakdown()
		keys := make([]string, 0, len(after))
		for k := range after {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var delta float64
		for _, k := range keys {
			delta += after[k] - before[k]
		}
		diff := rep.Cost - delta
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-12 {
			t.Fatalf("seed %d: Report.Cost %.15f != breakdown delta %.15f", seed, rep.Cost, delta)
		}
		// Sanity: the job must have charged more than one category.
		charged := 0
		for _, k := range keys {
			if after[k]-before[k] > 0 {
				charged++
			}
		}
		if charged < 2 {
			t.Fatalf("seed %d: only %d billing categories charged", seed, charged)
		}
	}
}
