package experiments

import (
	"testing"
)

// TestChaosStormSmoke drives the four-policy resilience ladder through
// a violent regime — 60% base fault rate with 8× correlated storms —
// so the hedge, breaker, deadline and shedding paths all execute under
// heavy contention. CI runs this with -race as the chaos smoke step;
// the assertions only pin accounting sanity, not tuned outcomes.
// TestChaosPipelineBatch drives the pipelining × batching ladder
// through the same violent regime — 60% base fault rate with 8×
// correlated storms — under a tight account limit, so staged execution,
// batch coalescing, retry chains and stage failures all interleave on
// one clock. The assertions pin accounting sanity; the span-replay cost
// identity under such a storm is internal/serving's
// TestChaosBatchedTracesReplayMeter.
func TestChaosPipelineBatch(t *testing.T) {
	r, err := runPipelineBatch("mobilenet", 24, 1.0, ResilienceSeed, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(PipelineLadder) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(PipelineLadder))
	}
	for _, row := range r.Rows {
		if row.Good > r.Jobs || row.Good < 0 {
			t.Errorf("cell %s: good %d of %d", row.Cell.Name, row.Good, r.Jobs)
		}
		if row.TotalCost < 0 {
			t.Errorf("cell %s: negative cost %v", row.Cell.Name, row.TotalCost)
		}
	}
}

func TestChaosStormSmoke(t *testing.T) {
	r, err := runResilience("mobilenet", 24, 1.0, ResilienceSeed, []float64{0.60})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(ResiliencePolicies) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(ResiliencePolicies))
	}
	for _, row := range r.Rows {
		if row.Completed+row.Shed+row.Failed != r.Jobs {
			t.Errorf("policy %s: outcomes %d+%d+%d don't account for %d requests",
				row.Policy, row.Completed, row.Shed, row.Failed, r.Jobs)
		}
		if row.Good > row.Completed {
			t.Errorf("policy %s: good %d exceeds completed %d", row.Policy, row.Good, row.Completed)
		}
		if row.Cost < 0 || row.WastedSpend < 0 {
			t.Errorf("policy %s: negative accounting: cost %v wasted %v",
				row.Policy, row.Cost, row.WastedSpend)
		}
	}
}
