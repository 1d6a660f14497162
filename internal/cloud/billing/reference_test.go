package billing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refMeter is the map-backed meter the slot-based Meter replaced, kept
// as the specification: a map of category totals, summed in sorted
// category order.
type refMeter struct {
	mu         sync.Mutex
	byCategory map[string]float64
	observer   Observer
}

func (m *refMeter) SetObserver(obs Observer) { m.observer = obs }

func (m *refMeter) Add(category string, amount float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byCategory == nil {
		m.byCategory = make(map[string]float64)
	}
	m.byCategory[category] += amount
	if m.observer != nil {
		m.observer(category, amount)
	}
}

func (m *refMeter) sortedKeys() []string {
	keys := make([]string, 0, len(m.byCategory))
	for k := range m.byCategory {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *refMeter) Total() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t float64
	for _, k := range m.sortedKeys() {
		t += m.byCategory[k]
	}
	return t
}

func (m *refMeter) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(m.byCategory))
	for k, v := range m.byCategory {
		out[k] = v
	}
	return out
}

func (m *refMeter) String() string {
	var b strings.Builder
	for _, k := range m.sortedKeys() {
		fmt.Fprintf(&b, "%s: $%.6f\n", k, m.byCategory[k])
	}
	fmt.Fprintf(&b, "total: $%.6f", m.Total())
	return b.String()
}

// TestMeterMatchesReference drives the slot-based Meter and the
// map-backed reference through the same random sequences of charges —
// amounts across twenty decades so the summation order shows in the low
// bits, categories appearing for the first time mid-run, in an order
// unrelated to their names, zero charges, Reset — and requires, after
// every step, Total equal bit for bit, Breakdown, every Category
// (charged or not) and String equal, and both observers called with the
// same charges in the same order.
func TestMeterMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m Meter
		var ref refMeter
		type charge struct {
			category string
			amount   float64
		}
		var seen, refSeen []charge
		observe := func() {
			m.SetObserver(func(c string, a float64) { seen = append(seen, charge{c, a}) })
			ref.SetObserver(func(c string, a float64) { refSeen = append(refSeen, charge{c, a}) })
		}
		observe()
		// Categories unlock over the run, so first sights keep happening.
		categories := []string{"s3:put", "lambda:invocations", "s3:get", "lambda:execution", "s3:storage",
			"redis:node-hours", "", "zz", "a", "sagemaker:instance", "lambda:execution:extra", "Z"}
		resets := 0
		for step := 0; step < 3000; step++ {
			if rng.Intn(400) == 0 {
				m, ref = Meter{}, refMeter{}
				observe()
				resets++
			}
			c := categories[rng.Intn(min(len(categories), 2+step/150))]
			amount := math.Pow(10, float64(rng.Intn(20)-12)) * rng.Float64()
			if rng.Intn(10) == 0 {
				amount = 0
			}
			m.Add(c, amount)
			ref.Add(c, amount)
			if got, want := m.Total(), ref.Total(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: total %.17g, reference %.17g", seed, step, got, want)
			}
			if step%25 != 0 {
				continue
			}
			if got, want := m.Breakdown(), ref.Breakdown(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: breakdown %v, reference %v", seed, step, got, want)
			}
			if got, want := m.String(), ref.String(); got != want {
				t.Fatalf("seed %d step %d: String\n%s\nreference\n%s", seed, step, got, want)
			}
		}
		if !reflect.DeepEqual(seen, refSeen) {
			t.Fatalf("seed %d: observers saw different charge sequences", seed)
		}
		if resets == 0 || len(m.Breakdown()) < 8 {
			t.Fatalf("seed %d: %d resets, %d categories — the run must cover both", seed, resets, len(m.Breakdown()))
		}
	}
}

// BenchmarkMeterAddTotal is one request's worth of meter traffic on the
// steady storm: four charges into the simulators' categories and the
// two Totals that bracket a job.
func BenchmarkMeterAddTotal(b *testing.B) {
	var m Meter
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		before := m.Total()
		m.Add("s3:put", 5e-6)
		m.Add("lambda:invocations", 2e-7)
		m.Add("s3:get", 4e-7)
		m.Add("lambda:execution", 1.1e-5)
		sink += m.Total() - before
	}
	if sink <= 0 {
		b.Fatal("nothing was charged")
	}
}
