package tensor

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 12 [running]:").
func goid(t *testing.T) uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	fields := bytes.Fields(buf)
	if len(fields) < 2 {
		t.Errorf("unreadable stack header %q", buf)
		return 0
	}
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		t.Errorf("stack header %q: %v", buf, err)
	}
	return id
}

// The split contract: the ranges tile [0, n) — contiguous, ascending,
// every index in exactly one — there are never more ranges than workers,
// and a loop runs as one call on the caller's goroutine exactly when it
// is under a grain of work or has one worker (or one index) to give.
func TestParallelForSplitContract(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	type call struct {
		lo, hi int
		g      uint64
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1001} {
		for _, cost := range []int{1, 1000, 1 << 20} {
			for _, workers := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("n=%d/cost=%d/workers=%d", n, cost, workers), func(t *testing.T) {
					SetMaxWorkers(workers)
					caller := goid(t)
					var mu sync.Mutex
					var calls []call
					parallelFor(n, cost, func(lo, hi int) {
						g := goid(t)
						mu.Lock()
						calls = append(calls, call{lo, hi, g})
						mu.Unlock()
					})
					sort.Slice(calls, func(i, j int) bool { return calls[i].lo < calls[j].lo })
					next := 0
					for _, c := range calls {
						if c.lo != next || c.hi < c.lo || (len(calls) > 1 && c.hi == c.lo) {
							t.Fatalf("ranges %v do not tile [0, %d)", calls, n)
						}
						next = c.hi
					}
					if next != n {
						t.Fatalf("ranges %v stop at %d, want %d", calls, next, n)
					}
					if len(calls) > workers {
						t.Fatalf("%d ranges for %d workers", len(calls), workers)
					}
					if workers == 1 || n <= 1 || n*cost < grain {
						if len(calls) != 1 || calls[0].g != caller {
							t.Fatalf("calls %v: want one inline call on the caller's goroutine %d", calls, caller)
						}
					} else if want := min(workers, n); len(calls) != want {
						t.Fatalf("split into %d ranges, want %d", len(calls), want)
					}
				})
			}
		}
	}
}
