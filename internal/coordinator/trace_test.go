package coordinator

import (
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
