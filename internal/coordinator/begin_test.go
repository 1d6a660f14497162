package coordinator

import (
	"fmt"
	"testing"
	"time"

	"ampsinf/internal/tensor"
)

// A request whose input does not fit the model — wrong rank (a rank-0
// tensor included), an empty batch, other trailing dimensions — is
// turned away before anything is uploaded, billed or taken off the
// free list, on every Lean × SkipCompute combination and both drivers;
// the deployment serves the next well-formed job as if nothing happened.
func TestMalformedInputRejectedBeforeBilling(t *testing.T) {
	for _, skip := range []bool{false, true} {
		for _, lean := range []bool{false, true} {
			t.Run(fmt.Sprintf("skip=%v/lean=%v", skip, lean), func(t *testing.T) {
				e, d, m, _ := deployTinyResilient(t, 0, 0, func(cfg *Config) { cfg.SkipCompute = skip })
				shape := m.InputShape
				wide := shape.Clone()
				wide[len(wide)-1]++
				for _, bad := range []struct {
					name string
					in   *tensor.Tensor
				}{
					{"rank 0", tensor.New()},
					{"rank too low", tensor.New(shape[1:]...)},
					{"rank too high", tensor.New(append([]int{1}, shape...)...)},
					{"empty batch", tensor.FromSlice(nil, append([]int{0}, shape[1:]...)...)},
					{"trailing dims", tensor.New(wide...)},
					{"nil", nil},
				} {
					name, in := bad.name, bad.in
					for _, staged := range []bool{false, true} {
						before := e.meter.Total()
						puts, _ := e.store.Stats()
						var rep *Report
						var err error
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s (staged=%v): panicked in the caller: %v", name, staged, r)
								}
							}()
							if staged {
								var sj *StagedJob
								sj, err = d.BeginStaged(in, StagedOptions{Lean: lean})
								rep = sj.Rep()
							} else {
								rep, err = d.Run(in, RunOptions{Lean: lean})
							}
						}()
						if err == nil {
							t.Fatalf("%s (staged=%v): accepted", name, staged)
						}
						if rep == nil || rep.Cost != 0 || rep.Trace != nil {
							t.Fatalf("%s (staged=%v): report %+v, want an empty one", name, staged, rep)
						}
						d.ReleaseReport(rep)
						if got, _ := e.store.Stats(); got != puts || e.meter.Total() != before {
							t.Fatalf("%s (staged=%v): rejected after %d puts and $%g billed: %v",
								name, staged, got-puts, e.meter.Total()-before, err)
						}
						if n := len(d.leanFree); n != 0 {
							t.Fatalf("%s (staged=%v): a rejected request left %d records on the free list", name, staged, n)
						}
					}
				}
				rep, err := d.Run(randomInput(m, 1), RunOptions{Lean: lean})
				if err != nil {
					t.Fatalf("well-formed job after the rejections: %v", err)
				}
				d.ReleaseReport(rep)
			})
		}
	}
}

// A negative per-job deadline is rejected like SLOPolicy.Validate
// rejects its own, not read as "no deadline"; a positive one gates the
// job.
func TestNegativeJobDeadlineRejected(t *testing.T) {
	for _, lean := range []bool{false, true} {
		e, d, m, _ := deployTinyResilient(t, 0, 0, nil)
		in := randomInput(m, 1)
		rep, err := d.Run(in, RunOptions{Lean: lean, Deadline: time.Nanosecond})
		if !IsDeadlineExceeded(err) {
			t.Fatalf("lean=%v: a 1 ns deadline did not fail the job on its deadline: %v", lean, err)
		}
		d.ReleaseReport(rep)
		before := e.meter.Total()
		rep, err = d.Run(in, RunOptions{Lean: lean, Deadline: -time.Second})
		if err == nil || IsDeadlineExceeded(err) || rep == nil || rep.Cost != 0 || e.meter.Total() != before {
			t.Fatalf("lean=%v: Run with a negative deadline: report %+v, err %v, want a plain rejection", lean, rep, err)
		}
		sj, err := d.BeginStaged(in, StagedOptions{Lean: lean, Deadline: -time.Second})
		if err == nil || IsDeadlineExceeded(err) || sj.Rep().Cost != 0 || e.meter.Total() != before {
			t.Fatalf("lean=%v: BeginStaged with a negative deadline: report %+v, err %v, want a plain rejection", lean, sj.Rep(), err)
		}
		if _, err := sj.RunStage(0); err == nil {
			t.Fatalf("lean=%v: a rejected staged job ran a stage", lean)
		}
	}
}
