package coordinator

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ampsinf/internal/tensor"
)

func tensorAllClose(a, b *tensor.Tensor) bool { return tensor.AllClose(a, b, 0) }

// Concurrent jobs on one deployment must be safe (run under -race) and
// every job must still produce the correct prediction.
func TestConcurrentJobsSafe(t *testing.T) {
	_, d, m, w := deployTinySplit(t)
	const jobs = 8
	type result struct {
		idx int
		err error
		ok  bool
	}
	results := make(chan result, jobs)
	for i := 0; i < jobs; i++ {
		go func(i int) {
			in := randomInput(m, int64(100+i))
			rep, err := d.RunEager(in)
			if err != nil {
				results <- result{i, err, false}
				return
			}
			want, err := m.Forward(w, in)
			if err != nil {
				results <- result{i, err, false}
				return
			}
			results <- result{i, nil, tensorAllClose(want, rep.Output)}
		}(i)
	}
	for i := 0; i < jobs; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("job %d: %v", r.idx, r.err)
		}
		if !r.ok {
			t.Fatalf("job %d produced a wrong prediction", r.idx)
		}
	}
}

func TestTimelineRendersPhases(t *testing.T) {
	_, d, m, _ := deployTinySplit(t)
	rep, err := d.RunEager(randomInput(m, 77))
	if err != nil {
		t.Fatal(err)
	}
	out := Timeline(rep, 60)
	for _, want := range []string{"job timeline", "λ0", "λ1", "MB", "(cold)", "C"} {
		if !containsStr(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	if Timeline(nil, 60) != "(empty report)\n" {
		t.Fatal("nil report not handled")
	}
	seq, err := d.RunSequential(randomInput(m, 78))
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(Timeline(seq, 40), "(warm)") {
		t.Fatal("warm marker missing")
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// A partition's decoded weights are views of its blob, shared by every
// concurrent invocation. Parallel batches — each job resets the warm
// pool, so cold starts re-decode while other jobs compute — must only
// ever read them (run under -race): predictions stay exact and the blobs
// keep their bytes.
func TestConcurrentBatchesOnlyReadSharedWeights(t *testing.T) {
	_, d, m, w := deployTinySplit(t)
	var blobs [][]byte
	for _, p := range d.parts {
		blobs = append(blobs, append([]byte(nil), p.blob...))
	}
	inputs := []*tensor.Tensor{randomInput(m, 200), randomInput(m, 201), randomInput(m, 202)}
	var want []*tensor.Tensor
	for _, in := range inputs {
		out, err := m.Forward(w, in)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}
	const batches = 4
	errs := make(chan error, batches)
	for b := 0; b < batches; b++ {
		go func() {
			br, err := d.RunBatchParallel(inputs)
			for i := 0; err == nil && i < len(inputs); i++ {
				if !tensorAllClose(want[i], br.Jobs[i].Output) {
					err = fmt.Errorf("image %d: wrong prediction", i)
				}
			}
			errs <- err
		}()
	}
	for b := 0; b < batches; b++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for i, p := range d.parts {
		if !bytes.Equal(blobs[i], p.blob) {
			t.Errorf("partition %d: serving changed the weight container", i)
		}
	}
}
