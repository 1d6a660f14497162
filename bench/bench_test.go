package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"ampsinf/internal/cloud/billing"
	"ampsinf/internal/cloud/s3"
	"ampsinf/internal/cloud/stage"
)

// manifest is the part of BENCHMARK.json the smoke test holds the
// program to.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	m := manifest{Workloads: raw.Workloads}
	for _, d := range raw.EndToEnd {
		m.EndToEnd = append(m.EndToEnd, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range raw.PerLayer {
		m.PerLayer = append(m.PerLayer, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sameDefs holds the emitted metrics to the manifest in both
// directions: every manifest metric emitted with its unit, nothing
// emitted that the manifest does not name.
func sameDefs(t *testing.T, what string, want []metricDef, got map[string]value) {
	t.Helper()
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s: name %q is outside the allowed characters", what, d.Name)
		}
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json names %s, the run did not emit it", what, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", what, d.Name, v.Unit, d.Unit)
		}
	}
	for n := range got {
		if !seen[n] {
			t.Errorf("%s: the run emitted %s, BENCHMARK.json does not name it", what, n)
		}
	}
}

// TestQuickRuns drives every workload through both passes at smoke
// sizes and checks the contract with BENCHMARK.json, determinism at one
// seed, and that the seed reaches the simulation.
func TestQuickRuns(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	// The catalogue and the manifest agree on unit, direction and bound.
	for i, defs := range [][]metricDef{endToEnd, perLayer} {
		want := [][]metricDef{m.EndToEnd, m.PerLayer}[i]
		if len(defs) != len(want) {
			t.Fatalf("catalogue has %d metrics, BENCHMARK.json %d", len(defs), len(want))
		}
		for j, d := range defs {
			d.Exact = false
			if d != want[j] {
				t.Errorf("catalogue %+v, BENCHMARK.json %+v", d, want[j])
			}
		}
	}
	for i, wl := range workloads {
		if m.Workloads[i].Name != wl.name || !nameRE.MatchString(wl.name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, wl.name, m.Workloads[i].Name)
		}
		t.Run(wl.name, func(t *testing.T) {
			run := func(seed int64, trace bool) *runResult {
				t.Helper()
				res, err := runOne(wl.name, seed, 1, trace, true)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("seed %d: correct=%v attempted=%d failed=%d: %v", seed, res.Correct, res.Attempted, res.Failed, res.Failures)
				}
				return res
			}
			a, b, other := run(1, false), run(1, false), run(2, false)
			sameDefs(t, "end to end", m.EndToEnd, a.Metrics)
			sameDefs(t, "per layer", m.PerLayer, run(1, true).Metrics)
			for _, d := range endToEnd {
				if d.Exact && a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
					t.Errorf("%s differs at one seed: %v vs %v", d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
				}
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Errorf("sim digests differ at one seed: %q vs %q", a.Digest, b.Digest)
			}
			// cold_infer's plan, cost and completion do not depend on the
			// image, which is all the seed draws there.
			if wl.name != "cold_infer" && other.Digest == a.Digest {
				t.Errorf("seed 2 gave seed 1's sim digest %q", a.Digest)
			}
		})
	}
}

// TestTimedStoreForwards holds the store decorator to the conformance
// shape of internal/cloud/stage: every call reaches the store, bytes
// come back unchanged, and the charges are the bare store's.
func TestTimedStoreForwards(t *testing.T) {
	bareMeter, meter := &billing.Meter{}, &billing.Meter{}
	bare := s3.New(s3.DefaultConfig(), bareMeter)
	ts := &timedStore{inner: s3.New(s3.DefaultConfig(), meter)}
	var st stage.Store = ts
	if _, ok := st.(stage.Sizer); !ok {
		t.Fatal("decorator hides stage.Sizer: the lean path would take Get instead of GetSize")
	}
	if _, ok := st.(stage.StablePutter); !ok {
		t.Fatal("decorator hides stage.StablePutter")
	}
	data := []byte("activation-tensor-bytes")
	for _, s := range []interface {
		stage.Store
		stage.Sizer
		stage.StablePutter
	}{bare, ts} {
		if d, err := s.Put("job/a", data); err != nil || d <= 0 {
			t.Fatalf("Put = (%v, %v)", d, err)
		}
		if d, err := s.PutStable("job/b", data); err != nil || d <= 0 {
			t.Fatalf("PutStable = (%v, %v)", d, err)
		}
		got, d, err := s.Get("job/a")
		if err != nil || d <= 0 || !bytes.Equal(got, data) {
			t.Fatalf("Get = (%q, %v, %v)", got, d, err)
		}
		if n, d, err := s.GetSize("job/b"); err != nil || d <= 0 || n != int64(len(data)) {
			t.Fatalf("GetSize = (%d, %v, %v)", n, d, err)
		}
		if n, ok := s.Head("job/a"); !ok || n != int64(len(data)) {
			t.Fatalf("Head = (%d, %v)", n, ok)
		}
		s.ChargeStorage(1<<30, time.Hour)
		s.Delete("job/a")
		if _, ok := s.Head("job/a"); ok {
			t.Fatal("Delete left the key behind")
		}
		if _, _, err := s.Get("job/a"); err == nil {
			t.Fatal("Get of a deleted key succeeded")
		}
	}
	if ts.puts != 2 || ts.gets != 3 || ts.busy <= 0 {
		t.Errorf("decorator counted %d puts, %d gets, busy %v; want 2, 3, > 0", ts.puts, ts.gets, ts.busy)
	}
	if bareMeter.Total() != meter.Total() || meter.Total() <= 0 {
		t.Errorf("decorated store charged %v, bare store %v", meter.Total(), bareMeter.Total())
	}
}

// TestCompareVerdicts pins the four verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	host := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	sim := metricDef{Name: "sim_resp_s", Better: "lower", Bound: 0.05, Exact: true}
	v := func(x float64) value { return value{Value: x} }
	for _, c := range []struct {
		d        metricDef
		a, b     value
		sameSeed bool
		want     string
	}{
		{host, v(100), v(95), true, "same"},
		{host, v(100), v(85), true, "worse"},
		{host, v(100), v(115), true, "better"},
		{host, value{Value: 100, N: 9, Spread: 0.2}, v(95), true, "unresolved"},
		{sim, v(2), v(2), true, "same"},
		{sim, v(2), v(2.000001), true, "worse"},
		{sim, v(2), v(1.999999), true, "better"},
		{sim, v(2), v(2.000001), false, "same"},
	} {
		if _, got := verdict(c.d, c.a, c.b, c.sameSeed); got != c.want {
			t.Errorf("%s %v→%v (same seed %v): verdict %q, want %q", c.d.Name, c.a.Value, c.b.Value, c.sameSeed, got, c.want)
		}
	}
}
