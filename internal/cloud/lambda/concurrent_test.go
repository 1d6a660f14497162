package lambda

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ampsinf/internal/cloud/faults"
	"ampsinf/internal/obs"
)

// Eight goroutines invoke one function whose handler keeps introducing
// phase names the platform has never seen, under fault injection: the
// copy-on-write handle tables must lose no observation (and, under
// -race, publish new names without a data race against the invocations
// reading the previous table).
func TestConcurrentInvokesFirstSightPhases(t *testing.T) {
	const workers, perWorker = 8, 60
	pl, _ := newPlatform()
	mx := obs.NewMetrics()
	ts := obs.NewTimeSeries(time.Second)
	pl.SetMetrics(mx)
	pl.SetSeries(ts)
	pl.SetInjector(faults.New(faults.Uniform(0.3, 5)))
	pl.EnableClock()

	var mu sync.Mutex
	ran := map[string]int64{} // phase name → times a handler advanced it
	handler := func(ctx *Context, payload []byte) ([]byte, error) {
		names := []string{"work", string(payload)}
		mu.Lock()
		ran["overhead"]++
		if ctx.Cold() {
			ran["coldstart"]++
		}
		for _, n := range names {
			ran[n]++
		}
		mu.Unlock()
		for _, n := range names {
			ctx.Advance(n, time.Millisecond)
		}
		return nil, nil
	}
	if err := pl.CreateFunction(FunctionConfig{Name: "f", MemoryMB: 512, Handler: handler}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A fresh name every few calls, some shared across workers.
				phase := fmt.Sprintf("step-%d-%d", g%3, i/4)
				if _, err := pl.Invoke("f", []byte(phase), InvokeOptions{}); err != nil && !faults.IsTransient(err) {
					t.Errorf("worker %d invoke %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()

	snap := mx.Snapshot()
	if len(ran) < 40 {
		t.Fatalf("only %d phase names ran; the test needs many first sights", len(ran))
	}
	for name, want := range ran {
		h := snap.Histograms[fmt.Sprintf("lambda_phase_seconds{phase=%q}", name)]
		if h == nil || h.Count != want {
			t.Errorf("phase %q: histogram %+v, want count %d", name, h, want)
		}
	}
	if got, want := len(snap.Histograms), len(ran); got != want {
		t.Errorf("%d phase histograms for %d phase names", got, want)
	}
	var injected int64
	for name, n := range snap.Counters {
		if strings.HasPrefix(name, "lambda_faults_total{") {
			injected += n
		}
	}
	if injected == 0 || snap.Counters["lambda_invocations_total"] != ran["overhead"] {
		t.Errorf("injected faults %d, invocations %d, handler runs %d", injected, snap.Counters["lambda_invocations_total"], ran["overhead"])
	}
}
