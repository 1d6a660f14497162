package faults

import (
	"math"
	"testing"
	"time"
)

func TestNewNormalizesCumulativeRates(t *testing.T) {
	in := New(Config{
		Seed:           5,
		InvokeThrottle: 0.9,
		InvokeCrash:    0.6,
		InvokeTimeout:  0.5, // sum 2.0 → scaled by 1/2
		GetFail:        0.8,
		GetSlow:        0.8, // sum 1.6 → scaled by 1/1.6
		PutFail:        0.2,
		PutSlow:        0.3, // sum 0.5 → untouched
	})
	eff := in.cfg
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !approx(eff.InvokeThrottle, 0.45) || !approx(eff.InvokeCrash, 0.3) || !approx(eff.InvokeTimeout, 0.25) {
		t.Fatalf("invoke rates not proportionally normalized: %+v", eff)
	}
	if !approx(eff.GetFail, 0.5) || !approx(eff.GetSlow, 0.5) {
		t.Fatalf("get rates not proportionally normalized: %+v", eff)
	}
	if eff.PutFail != 0.2 || eff.PutSlow != 0.3 {
		t.Fatalf("in-range put rates were rewritten: %+v", eff)
	}
	// Relative weights preserved: throttle/crash ratio stays 0.9/0.6.
	if r := eff.InvokeThrottle / eff.InvokeCrash; !approx(r, 1.5) {
		t.Fatalf("relative weight changed: ratio %v, want 1.5", r)
	}
	// Fully saturated invoke group: every draw faults, none escape.
	for i := 0; i < 2000; i++ {
		if k, _ := in.StoreFault("get", "k"); k == None {
			t.Fatal("saturated get group drew None")
		}
	}
}

func TestEffectiveReportsDefaults(t *testing.T) {
	var nilIn *Injector
	if k, _ := nilIn.InvokeFaultAt("f", 0); k != None {
		t.Fatalf("nil injector drew invoke fault %v", k)
	}
	if k, f := nilIn.StoreFault("get", "k"); k != None || f != 1 {
		t.Fatalf("nil injector drew store fault %v ×%v", k, f)
	}
	eff := New(Config{Seed: 3, BurstEvery: 40 * time.Second}).cfg
	if eff.BurstLength != 10*time.Second || eff.BurstFactor != 10 {
		t.Fatalf("burst defaults not reflected: %+v", eff)
	}
}

func TestStormScheduleDeterministicAndOrderIndependent(t *testing.T) {
	cfg := Config{Seed: 17, InvokeCrash: 0.01, BurstEvery: 30 * time.Second, BurstLength: 5 * time.Second}
	a, b := New(cfg), New(cfg)
	// Query a forwards and b backwards: the lazily generated schedule
	// must agree at every probed instant.
	const n = 400
	probes := make([]time.Duration, n)
	for i := range probes {
		probes[i] = time.Duration(i) * 977 * time.Millisecond
	}
	got := make([]bool, n)
	for i, p := range probes {
		got[i] = a.InStorm(p)
	}
	hits := 0
	for i := n - 1; i >= 0; i-- {
		if b.InStorm(probes[i]) != got[i] {
			t.Fatalf("storm schedule depends on query order at t=%v", probes[i])
		}
		if got[i] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no probe landed in a storm over ~390s with 30s mean gap")
	}
	if hits == n {
		t.Fatal("every probe in a storm: windows not bounded")
	}
}

func TestBurstBoostsRatesInsideWindows(t *testing.T) {
	cfg := Config{Seed: 9, InvokeCrash: 0.02, BurstEvery: 20 * time.Second, BurstLength: 10 * time.Second, BurstFactor: 25}
	in := New(cfg)
	// Partition a long timeline into storm and calm instants first (the
	// schedule is draw-independent), then measure fault rates in each.
	var stormT, calmT []time.Duration
	for i := 0; i < 20000; i++ {
		ts := time.Duration(i) * 53 * time.Millisecond
		if in.InStorm(ts) {
			stormT = append(stormT, ts)
		} else {
			calmT = append(calmT, ts)
		}
	}
	if len(stormT) < 500 || len(calmT) < 500 {
		t.Fatalf("degenerate split: %d storm / %d calm probes", len(stormT), len(calmT))
	}
	rate := func(ts []time.Duration) float64 {
		hits := 0
		for _, now := range ts {
			if k, _ := in.InvokeFaultAt("f", now); k != None {
				hits++
			}
		}
		return float64(hits) / float64(len(ts))
	}
	calm, storm := rate(calmT), rate(stormT)
	if storm < 5*calm {
		t.Fatalf("storm rate %.4f not clearly boosted over calm rate %.4f", storm, calm)
	}
	if storm < 0.3 || storm > 0.7 { // 0.02×25 = 0.5
		t.Fatalf("storm rate %.4f, want ≈0.5", storm)
	}
}

func TestBurstBoostRenormalizes(t *testing.T) {
	in := New(Config{Seed: 2, InvokeThrottle: 0.2, InvokeCrash: 0.1, BurstEvery: time.Second, BurstLength: time.Hour, BurstFactor: 100})
	// Inside the (enormous) first storm the boosted rates saturate; the
	// draw must still be a valid distribution with 2:1 throttle:crash.
	now := 2 * time.Minute
	if !in.InStorm(now) {
		t.Skip("first storm landed elsewhere; schedule is seed-dependent")
	}
	var throttle, crash int
	for i := 0; i < 6000; i++ {
		switch k, _ := in.InvokeFaultAt("f", now); k {
		case Throttle:
			throttle++
		case Crash:
			crash++
		case None:
			t.Fatal("saturated storm drew None")
		}
	}
	r := float64(throttle) / float64(crash)
	if r < 1.7 || r > 2.3 {
		t.Fatalf("boosted ratio %.2f, want ≈2.0", r)
	}
}

func TestClocklessDrawsUseOffsetZero(t *testing.T) {
	// Without SetClock, burst-mode StoreFault draws at t=0, which is
	// always before the first storm (gaps have a positive floor).
	cfg := Config{Seed: 13, GetFail: 0.01, BurstEvery: time.Minute, BurstFactor: 50}
	a, b := New(cfg), New(Config{Seed: 13, GetFail: 0.01})
	for i := 0; i < 3000; i++ {
		ka, _ := a.StoreFault("get", "k")
		kb, _ := b.StoreFault("get", "k")
		if ka != kb {
			t.Fatalf("draw %d: burst-at-zero %v != calm %v", i, ka, kb)
		}
	}
}

func TestSetClockDrivesBurst(t *testing.T) {
	cfg := Config{Seed: 17, GetFail: 0.02, BurstEvery: 30 * time.Second, BurstLength: 5 * time.Second, BurstFactor: 40}
	in := New(cfg)
	// Find one storm instant, then pin the clock there.
	var stormAt time.Duration = -1
	for i := 0; i < 5000; i++ {
		ts := time.Duration(i) * 101 * time.Millisecond
		if in.InStorm(ts) {
			stormAt = ts
			break
		}
	}
	if stormAt < 0 {
		t.Fatal("no storm found in first ~500s")
	}
	in.SetClock(func() time.Duration { return stormAt })
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if k, _ := in.StoreFault("get", "k"); k != None {
			hits++
		}
	}
	if got := float64(hits) / n; got < 0.5 {
		t.Fatalf("clock-driven storm rate %.3f, want ≈0.8 (0.02×40)", got)
	}
}
