package faults

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsNeutral(t *testing.T) {
	var in *Injector
	if k, _ := in.InvokeFaultAt("f", 0); k != None {
		t.Fatalf("nil injector injected %v", k)
	}
	if k, factor := in.StoreFault("get", "k"); k != None || factor != 1 {
		t.Fatalf("nil injector injected %v (factor %v)", k, factor)
	}
	if in.Total() != 0 {
		t.Fatal("nil injector reported counts")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 7})
	for i := 0; i < 10000; i++ {
		if k, _ := in.InvokeFaultAt("f", 0); k != None {
			t.Fatalf("zero-rate injector injected %v", k)
		}
		if k, _ := in.StoreFault("get", "k"); k != None {
			t.Fatalf("zero-rate injector injected %v", k)
		}
		if k, _ := in.StoreFault("put", "k"); k != None {
			t.Fatalf("zero-rate injector injected %v", k)
		}
	}
	if in.Total() != 0 {
		t.Fatalf("total %d after zero-rate draws", in.Total())
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	cfg := Uniform(0.25, 42)
	a, b := New(cfg), New(cfg)
	for i := 0; i < 5000; i++ {
		ka, ha := a.InvokeFaultAt("f", 0)
		kb, hb := b.InvokeFaultAt("f", 0)
		if ka != kb || ha != hb {
			t.Fatalf("draw %d diverged: %v/%v vs %v/%v", i, ka, ha, kb, hb)
		}
		op := "get"
		if i%2 == 1 {
			op = "put"
		}
		sa, fa := a.StoreFault(op, "k")
		sb, fb := b.StoreFault(op, "k")
		if sa != sb || fa != fb {
			t.Fatalf("store draw %d diverged: %v/%v vs %v/%v", i, sa, fa, sb, fb)
		}
	}
	if a.counts != b.counts {
		t.Fatalf("counts diverged: %v vs %v", a.counts, b.counts)
	}
	if a.Total() == 0 {
		t.Fatal("25% rate over 10000 draws injected nothing")
	}
}

func TestSeedsProduceDifferentStreams(t *testing.T) {
	a, b := New(Uniform(0.5, 1)), New(Uniform(0.5, 2))
	same := 0
	const n = 2000
	for i := 0; i < n; i++ {
		ka, _ := a.InvokeFaultAt("f", 0)
		kb, _ := b.InvokeFaultAt("f", 0)
		if ka == kb {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestRatesAreRoughlyHonored(t *testing.T) {
	const rate, n = 0.30, 20000
	in := New(Uniform(rate, 11))
	hits := 0
	for i := 0; i < n; i++ {
		if k, _ := in.InvokeFaultAt("f", 0); k != None {
			hits++
		}
	}
	got := float64(hits) / n
	if got < rate-0.03 || got > rate+0.03 {
		t.Fatalf("invoke fault rate %.3f, want ≈%.2f", got, rate)
	}
	for _, k := range []Kind{Throttle, Crash, Timeout} {
		if in.counts[k] == 0 {
			t.Fatalf("kind %v never drawn at rate %.2f over %d draws: %v", k, rate, n, in.counts)
		}
	}
}

func TestNewClampsAndDefaults(t *testing.T) {
	in := New(Config{
		Seed:           0, // must behave as a usable seed, not panic
		InvokeThrottle: 1.5,
		InvokeCrash:    -0.5,
		GetFail:        2,
	})
	if in.cfg.InvokeThrottle != 1 || in.cfg.InvokeCrash != 0 || in.cfg.GetFail != 1 {
		t.Fatalf("rates not clamped: %+v", in.cfg)
	}
	// Rate 1 throttle: every invocation must throttle.
	if k, _ := in.InvokeFaultAt("f", 0); k != Throttle {
		t.Fatalf("rate-1 throttle drew %v", k)
	}
	if k, factor := in.StoreFault("get", "k"); k != Unavailable || factor != 0 {
		t.Fatalf("rate-1 GetFail drew %v (factor %v)", k, factor)
	}
	// Rate-1 timeouts and slowdowns carry the package's fixed factors.
	in = New(Config{InvokeTimeout: 1, GetSlow: 1})
	if k, hang := in.InvokeFaultAt("f", 0); k != Timeout || hang != TimeoutHangFactor {
		t.Fatalf("rate-1 timeout drew %v (hang %v)", k, hang)
	}
	if k, factor := in.StoreFault("get", "k"); k != Slow || factor != SlowFactor {
		t.Fatalf("rate-1 GetSlow drew %v (factor %v)", k, factor)
	}
}

func TestUniformSplitsRate(t *testing.T) {
	cfg := Uniform(0.3, 9)
	if s := cfg.InvokeThrottle + cfg.InvokeCrash + cfg.InvokeTimeout; s < 0.299 || s > 0.301 {
		t.Fatalf("invoke rates sum to %v, want 0.3", s)
	}
	if s := cfg.GetFail + cfg.GetSlow; s < 0.299 || s > 0.301 {
		t.Fatalf("get rates sum to %v, want 0.3", s)
	}
	if c := Uniform(-1, 1); c.InvokeThrottle != 0 {
		t.Fatal("negative rate not clamped")
	}
	if c := Uniform(9, 1); c.InvokeThrottle > 1.0/3+1e-9 {
		t.Fatalf("over-1 rate not clamped: %v", c.InvokeThrottle)
	}
}

func TestErrorClassification(t *testing.T) {
	fe := &Error{Kind: Throttle, Op: "invoke", Target: "part-0"}
	if !IsTransient(fe) {
		t.Fatal("fault error not transient")
	}
	wrapped := fmt.Errorf("coordinator: stage 2: %w", fe)
	if !IsTransient(wrapped) {
		t.Fatal("wrapped fault error not transient")
	}
	if IsTransient(errors.New("deterministic handler bug")) {
		t.Fatal("plain error classified transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil error classified transient")
	}
	if got := fe.Error(); got != `faults: injected throttle on invoke "part-0"` {
		t.Fatalf("error text %q", got)
	}
}

// IsTransient finds the *Error errors.As finds — depth first through
// single and multi-error wrappers — and allocates nothing doing it.
func TestIsTransientMatchesErrorsAs(t *testing.T) {
	fe := &Error{Kind: Crash, Op: "invoke", Target: "p1"}
	plain := errors.New("handler bug")
	for i, err := range []error{
		nil, plain, fe, (*Error)(nil),
		fmt.Errorf("a: %w", fmt.Errorf("b: %w", fe)),
		errors.Join(plain, fmt.Errorf("c: %w", fe)),
		errors.Join(plain, errors.New("d")),
		fmt.Errorf("%w and %w", plain, fe),
		errors.Join(nil, errors.Join(plain), fe),
	} {
		var target *Error
		if got, want := IsTransient(err), errors.As(err, &target) && target.Transient(); got != want {
			t.Errorf("case %d (%v): IsTransient %v, errors.As %v", i, err, got, want)
		}
	}
	wrapped := fmt.Errorf("stage: %w", fe)
	if n := testing.AllocsPerRun(100, func() { IsTransient(wrapped) }); n != 0 {
		t.Fatalf("IsTransient allocates %v times per call", n)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		None: "none", Throttle: "throttle", Crash: "crash",
		Timeout: "timeout", Unavailable: "unavailable", Slow: "slow",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "faults.Kind(99)" {
		t.Errorf("out-of-range kind: %q", Kind(99).String())
	}
}

func TestConcurrentDraws(t *testing.T) {
	in := New(Uniform(0.5, 3))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				in.InvokeFaultAt("f", 0)
				in.StoreFault("get", "k")
				in.StoreFault("put", "k")
			}
		}()
	}
	wg.Wait()
	var total int64
	for _, n := range in.counts {
		total += n
	}
	if total != in.Total() {
		t.Fatalf("counts sum %d != Total %d", total, in.Total())
	}
}

// A NaN rate clamps to 0 like any rate outside [0, 1]: it must not
// silence the other rates of its cumulative group, and a NaN
// BurstFactor must not silence the storms.
func TestNaNRatesClampToZero(t *testing.T) {
	const n = 10000
	nan := math.NaN()
	inv := New(Config{Seed: 3, InvokeThrottle: nan, InvokeCrash: 0.3})
	crashes := 0
	for i := 0; i < n; i++ {
		if k, _ := inv.InvokeFaultAt("f", 0); k == Crash {
			crashes++
		} else if k != None {
			t.Fatalf("a NaN throttle rate drew %v", k)
		}
	}
	if crashes < n/4 || crashes > n*7/20 {
		t.Fatalf("crash rate 0.3 beside a NaN throttle rate fired %d of %d", crashes, n)
	}
	get := New(Config{Seed: 3, GetFail: nan, GetSlow: 0.3})
	slow := 0
	for i := 0; i < n; i++ {
		if k, _ := get.StoreFault("get", "k"); k == Slow {
			slow++
		} else if k != None {
			t.Fatalf("a NaN GET failure rate drew %v", k)
		}
	}
	if slow < n/4 || slow > n*7/20 {
		t.Fatalf("GET slow rate 0.3 beside a NaN failure rate fired %d of %d", slow, n)
	}
	burst := New(Config{Seed: 3, InvokeCrash: 0.01, BurstEvery: time.Second, BurstFactor: nan})
	stormy := 0
	for i := 0; i < n; i++ {
		now := time.Duration(i) * time.Millisecond
		if k, _ := burst.InvokeFaultAt("f", now); k != None && burst.InStorm(now) {
			stormy++
		}
	}
	if stormy == 0 {
		t.Fatal("a NaN BurstFactor silenced every storm")
	}
}
