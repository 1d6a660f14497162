package experiments

import (
	"testing"
)

// TestPipelineBatchLadder pins the acceptance property of the
// pipelining/batching tentpole on the serving-scaling trace: the
// combined scheduler must improve cost-per-request or p99 latency over
// the sequential baseline, and every cell must complete its requests
// fault-free within the common deadline.
func TestPipelineBatchLadder(t *testing.T) {
	r, err := runPipelineBatchCap("tinycnn", 16, 0.5, ServingSeed, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(PipelineLadder) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(PipelineLadder))
	}
	byName := map[string]PipelineRow{}
	for _, row := range r.Rows {
		byName[row.Cell.Name] = row
		if row.Good != r.Jobs {
			t.Errorf("cell %s completed %d of %d fault-free requests within the deadline", row.Cell.Name, row.Good, r.Jobs)
		}
	}
	seq, both := byName["sequential"], byName["pipelined+batched"]
	if !(both.CostPerJob < seq.CostPerJob || both.P99Latency < seq.P99Latency) {
		t.Errorf("pipelined+batched ($%.6f/req, p99 %v) improves neither cost nor p99 over sequential ($%.6f/req, p99 %v)",
			both.CostPerJob, both.P99Latency, seq.CostPerJob, seq.P99Latency)
	}
	if batched := byName["batched"]; batched.CostPerJob >= seq.CostPerJob {
		t.Errorf("batched $%.6f/req not below sequential $%.6f/req", batched.CostPerJob, seq.CostPerJob)
	}
}

// TestPipelineBatchDeterministic: two fresh ladder runs must render the
// same table byte for byte.
func TestPipelineBatchDeterministic(t *testing.T) {
	render := func() string {
		r, err := runPipelineBatchCap("tinycnn", 12, 0.5, ServingSeed, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table().Render()
	}
	if a, bT := render(), render(); a != bT {
		t.Fatalf("ladder not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, bT)
	}
}
