package feedback

import (
	"math"
	"strings"
	"testing"

	"abg/internal/sched"
)

func TestAutoRateValidation(t *testing.T) {
	bad := []struct{ rMax, safety float64 }{
		{-0.1, 0.5}, {1, 0.5}, {0.2, 0}, {0.2, 1}, {math.NaN(), 0.5}, {0.2, math.NaN()},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rMax=%v safety=%v: expected panic", c.rMax, c.safety)
				}
			}()
			NewAutoRate(c.rMax, c.safety)
		}()
	}
}

func TestAutoRateStartsAtCeiling(t *testing.T) {
	a := DefaultAutoRate()
	a.InitialRequest()
	// Ĉ_L starts at 1 → safety/1 = 0.5 > rMax → rate = rMax.
	if a.Rate() != 0.2 {
		t.Fatalf("initial rate %v", a.Rate())
	}
}

func TestAutoRateTracksObservedCL(t *testing.T) {
	a := DefaultAutoRate()
	a.InitialRequest()
	// First full quantum with A=8: ratio vs A(0)=1 is 8 → Ĉ_L=8.
	a.NextRequest(quantum(8, 4, 100, 400, false))
	if a.ObservedTransitionFactor() != 8 {
		t.Fatalf("Ĉ_L = %v", a.ObservedTransitionFactor())
	}
	// Rate now 0.5/8 = 0.0625 < rMax, and below 1/Ĉ_L with margin.
	if got := a.Rate(); math.Abs(got-0.0625) > 1e-12 {
		t.Fatalf("rate = %v", got)
	}
	if a.Rate() >= 1/a.ObservedTransitionFactor() {
		t.Fatal("Theorem 4 requirement violated")
	}
	// A drop back to 2: ratio 4 < 8, Ĉ_L unchanged.
	a.NextRequest(quantum(2, 8, 100, 800, false))
	if a.ObservedTransitionFactor() != 8 {
		t.Fatalf("Ĉ_L moved: %v", a.ObservedTransitionFactor())
	}
}

func TestAutoRateIgnoresPartialQuanta(t *testing.T) {
	a := DefaultAutoRate()
	a.InitialRequest()
	// Partial (non-full) quantum with extreme parallelism must not poison
	// the Ĉ_L estimate (the definition uses full quanta only).
	partial := sched.QuantumStats{Allotment: 4, Length: 100, Steps: 10, Work: 1000, CPL: 10}
	a.NextRequest(&partial)
	if a.ObservedTransitionFactor() != 1 {
		t.Fatalf("partial quantum changed Ĉ_L: %v", a.ObservedTransitionFactor())
	}
}

func TestAutoRateRequestConverges(t *testing.T) {
	a := NewAutoRate(0.2, 0.5)
	d := a.InitialRequest()
	for q := 0; q < 40; q++ {
		d = a.NextRequest(quantum(24, int(math.Ceil(d)), 100, 2400, false))
	}
	if math.Abs(d-24) > 0.01 {
		t.Fatalf("did not converge: %v", d)
	}
}

func TestAutoRateEmptyQuantumHolds(t *testing.T) {
	a := DefaultAutoRate()
	a.InitialRequest()
	before := a.NextRequest(quantum(10, 4, 100, 400, false))
	after := a.NextRequest(&sched.QuantumStats{})
	if after != before {
		t.Fatal("empty quantum changed request")
	}
}

func TestAutoRateResetAndName(t *testing.T) {
	a := DefaultAutoRate()
	a.InitialRequest()
	a.NextRequest(quantum(50, 4, 100, 400, false))
	a.Reset()
	if a.ObservedTransitionFactor() != 1 || a.InitialRequest() != 1 {
		t.Fatal("reset incomplete")
	}
	if !strings.Contains(a.Name(), "AutoRate") {
		t.Fatal("name")
	}
	f := AutoRateFactory(0.3, 0.4)
	if f() == f() {
		t.Fatal("factory shares instances")
	}
}

// TestAutoRateAlwaysTheorem4Compliant: across a random parallelism walk,
// the used rate stays strictly below 1/Ĉ_L at all times.
func TestAutoRateAlwaysTheorem4Compliant(t *testing.T) {
	a := NewAutoRate(0.5, 0.8)
	d := a.InitialRequest()
	par := 4.0
	for q := 0; q < 200; q++ {
		if q%7 == 0 {
			par *= 3
		}
		if par > 100 {
			par = 1.5
		}
		rate := a.Rate()
		if rate >= 1/a.ObservedTransitionFactor() && a.ObservedTransitionFactor() > 1 {
			t.Fatalf("q=%d: rate %v >= 1/Ĉ_L %v", q, rate, 1/a.ObservedTransitionFactor())
		}
		d = a.NextRequest(quantum(par, int(math.Ceil(d)), 100, int64(par*100), false))
	}
}
