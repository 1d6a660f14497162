package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds kernel parallelism. It defaults to GOMAXPROCS; only
// tests lower it, to hold the kernels' output bits to the worker count.
var (
	workerMu   sync.RWMutex
	maxWorkers = runtime.GOMAXPROCS(0)
)

// SetMaxWorkers sets the number of goroutines kernels may use. Values < 1
// are clamped to 1. It returns the previous setting.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	workerMu.Lock()
	prev := maxWorkers
	maxWorkers = n
	workerMu.Unlock()
	return prev
}

// MaxWorkers returns the current kernel parallelism bound.
func MaxWorkers() int {
	workerMu.RLock()
	defer workerMu.RUnlock()
	return maxWorkers
}

// termLists recycles the term lists 1×1 Conv2D and MatMul workers
// compact their input rows into.
var termLists = sync.Pool{New: func() any { return new([]term) }}

// grain is the least work, in multiply-adds or elements touched, worth
// handing to other goroutines. A split costs 1–3 µs of spawn and wake-up
// while the other core is busy or briefly idle (BenchmarkParallelForHandoff),
// and halving W multiply-adds at 7–10 G/s a core saves more than that
// from 14–54 Ki on (DESIGN.md §17, "Splitting by work").
const grain = 1 << 16

// parallelFor runs fn(lo, hi) over [0, n), where each index is cost units
// of work. It runs fn(0, n) inline when there is one worker or less than
// a grain of work in all; otherwise it splits [0, n) into one contiguous
// range per worker, sizes differing by at most one, and waits for them.
func parallelFor(n, cost int, fn func(lo, hi int)) {
	w := min(MaxWorkers(), n)
	if w <= 1 || n*cost < grain {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(i*n/w, (i+1)*n/w)
	}
	wg.Wait()
}
