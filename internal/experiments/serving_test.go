package experiments

import (
	"reflect"
	"testing"
)

func servingSweep(t *testing.T) *ServingResult {
	t.Helper()
	r, err := runServingScaling("mobilenet", 20, 0.5, ServingSeed, []int{0, 5, 4})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestServingScalingTradeoff(t *testing.T) {
	r := servingSweep(t)
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	wide, tight := r.Rows[0], r.Rows[len(r.Rows)-1]
	if wide.Limit != 1000 {
		t.Fatalf("0 did not resolve to the platform default limit: %+v", wide)
	}
	if wide.Throttles != 0 {
		t.Fatalf("effectively-unlimited row throttled: %+v", wide)
	}
	if tight.Throttles == 0 {
		t.Fatalf("tightest limit never throttled: %+v", tight)
	}
	for _, row := range r.Rows {
		if row.PeakInFlight > row.Limit {
			t.Fatalf("limit %d exceeded: peak %d", row.Limit, row.PeakInFlight)
		}
	}
	// The trade-off itself: tight limits reuse warm containers (fewer
	// cold starts, cheaper) at the price of queueing delay.
	if tight.ColdStarts >= wide.ColdStarts {
		t.Fatalf("tight limit did not reduce cold starts: %d vs %d", tight.ColdStarts, wide.ColdStarts)
	}
	if tight.TotalCost >= wide.TotalCost {
		t.Fatalf("tight limit did not reduce cost: $%.9f vs $%.9f", tight.TotalCost, wide.TotalCost)
	}
	if tight.AvgLatency <= wide.AvgLatency {
		t.Fatalf("tight limit did not add latency: %v vs %v", tight.AvgLatency, wide.AvgLatency)
	}
}

func TestServingScalingDeterministic(t *testing.T) {
	a, b := servingSweep(t), servingSweep(t)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("sweeps diverged across runs:\n%+v\n%+v", a.Rows, b.Rows)
	}
}

func TestServingScalingTableRenders(t *testing.T) {
	tab := servingSweep(t).Table()
	if len(tab.Rows) != 3 || len(tab.Columns) != 10 {
		t.Fatalf("table %d×%d", len(tab.Rows), len(tab.Columns))
	}
	if tab.Render() == "" {
		t.Fatal("empty render")
	}
}
