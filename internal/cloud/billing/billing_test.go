package billing

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMeterBasics(t *testing.T) {
	var m Meter
	m.Add("a", 1.5)
	m.Add("a", 0.5)
	m.Add("b", 3)
	if m.Breakdown()["a"] != 2 || m.Breakdown()["b"] != 3 {
		t.Fatalf("categories: %v", m.Breakdown())
	}
	if m.Total() != 5 {
		t.Fatalf("total %v", m.Total())
	}
}

func TestMeterRejectsNegative(t *testing.T) {
	var m Meter
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge accepted")
		}
	}()
	m.Add("x", -1)
}

// Add must refuse every amount that is not a finite, non-negative
// number, and a refused charge must leave the meter untouched.
func TestMeterRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name   string
		amount float64
		panics bool
	}{
		{"zero", 0, false},
		{"smallest", math.SmallestNonzeroFloat64, false},
		{"largest", math.MaxFloat64 / 4, false},
		{"negative", -1e-300, true},
		{"negative zero", math.Copysign(0, -1), false},
		{"NaN", math.NaN(), true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Meter
			m.Add("x", 1)
			func() {
				defer func() {
					if got := recover() != nil; got != tc.panics {
						t.Fatalf("Add(%v) panicked: %v, want %v", tc.amount, got, tc.panics)
					}
				}()
				m.Add("x", tc.amount)
			}()
			want := 1.0
			if !tc.panics {
				want += tc.amount
			}
			if got := m.Total(); got != want {
				t.Fatalf("total after Add(%v) = %v, want %v", tc.amount, got, want)
			}
		})
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Add("c", 0.001)
			}
		}()
	}
	wg.Wait()
	if got := m.Total(); got < 15.99 || got > 16.01 {
		t.Fatalf("concurrent total %v, want 16", got)
	}
}

func TestMeterString(t *testing.T) {
	var m Meter
	m.Add("zeta", 1)
	m.Add("alpha", 2)
	s := m.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "total") {
		t.Fatalf("string: %s", s)
	}
	if strings.Index(s, "alpha") > strings.Index(s, "zeta") {
		t.Fatal("breakdown not sorted")
	}
}

// Property: totals are additive and never negative.
func TestMeterAdditiveProperty(t *testing.T) {
	f := func(amounts []float64) bool {
		var m Meter
		var want float64
		for i, a := range amounts {
			if a < 0 {
				a = -a
			}
			// Confine to dollar-scale amounts; clouds do not bill 1e308.
			a = math.Mod(a, 1e6)
			if math.IsNaN(a) {
				a = 0
			}
			cat := "x"
			if i%2 == 0 {
				cat = "y"
			}
			m.Add(cat, a)
			want += a
		}
		got := m.Total()
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
