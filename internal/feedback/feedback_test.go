package feedback

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"abg/internal/sched"
	"abg/internal/xrand"
)

// quantum builds a full-quantum stats record with the given measured
// parallelism A and request/allotment relationship.
func quantum(a float64, allot, length int, work int64, deprived bool) *sched.QuantumStats {
	cpl := float64(work) / a
	return &sched.QuantumStats{
		Allotment: allot, Length: length, Steps: length,
		Work: work, CPL: cpl, Deprived: deprived,
	}
}

func TestAControlRecurrence(t *testing.T) {
	c := NewAControl(0.2)
	if c.InitialRequest() != 1 {
		t.Fatal("d(1) != 1")
	}
	// Constant parallelism A = 11: d(q+1) = 0.2 d(q) + 0.8*11.
	d := 1.0
	for q := 0; q < 10; q++ {
		st := quantum(11, 4, 100, 400, false)
		got := c.NextRequest(st)
		want := 0.2*d + 0.8*11
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("q=%d: d=%v want %v", q, got, want)
		}
		d = want
	}
	if math.Abs(d-11) > 1e-5 {
		t.Fatalf("did not converge to 11: %v", d)
	}
}

func TestAControlOneStepConvergence(t *testing.T) {
	c := NewAControl(0)
	c.InitialRequest()
	got := c.NextRequest(quantum(37.5, 4, 100, 400, false))
	if got != 37.5 {
		t.Fatalf("r=0 should jump to A: %v", got)
	}
}

func TestAControlNoOvershootMonotone(t *testing.T) {
	// Theorem 1: approaching a constant A from below must be monotone with
	// no overshoot, error shrinking by factor r each quantum.
	for _, r := range []float64{0, 0.2, 0.5, 0.9} {
		c := NewAControl(r)
		d := c.InitialRequest()
		const A = 50.0
		prevErr := A - d
		for q := 0; q < 60; q++ {
			d2 := c.NextRequest(quantum(A, 4, 100, 400, false))
			if d2 > A+1e-9 {
				t.Fatalf("r=%v overshoot: d=%v > A=%v", r, d2, A)
			}
			if d2 < d-1e-9 {
				t.Fatalf("r=%v non-monotone: %v -> %v", r, d, d2)
			}
			err := A - d2
			if prevErr > 1e-6 {
				ratio := err / prevErr
				if math.Abs(ratio-r) > 1e-6 {
					t.Fatalf("r=%v: convergence ratio %v", r, ratio)
				}
			}
			d, prevErr = d2, err
		}
		if math.Abs(d-A) > A*math.Pow(r, 50)+1e-6 {
			t.Fatalf("r=%v: did not converge, d=%v", r, d)
		}
	}
}

func TestAControlEmptyQuantumHoldsRequest(t *testing.T) {
	c := NewAControl(0.2)
	c.InitialRequest()
	c.NextRequest(quantum(10, 4, 100, 400, false))
	before := c.NextRequest(quantum(10, 4, 100, 400, false))
	after := c.NextRequest(&sched.QuantumStats{Allotment: 4, Length: 100})
	if after != before {
		t.Fatalf("empty quantum changed request: %v -> %v", before, after)
	}
}

func TestAControlValidation(t *testing.T) {
	for _, r := range []float64{-0.1, 1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("r=%v: expected panic", r)
				}
			}()
			NewAControl(r)
		}()
	}
}

func TestAControlResetAndName(t *testing.T) {
	c := NewAControl(0.3)
	c.InitialRequest()
	c.NextRequest(quantum(40, 4, 100, 400, false))
	c.Reset()
	if c.InitialRequest() != 1 {
		t.Fatal("reset failed")
	}
	if !strings.Contains(c.Name(), "A-Control") || c.Rate() != 0.3 {
		t.Fatal("identity accessors wrong")
	}
}

func TestAGreedyMultiplicativeIncrease(t *testing.T) {
	g := DefaultAGreedy()
	d := g.InitialRequest()
	// Efficient and satisfied quanta double the request each time.
	for q := 0; q < 5; q++ {
		st := quantum(100, int(d), 100, int64(d)*100, false) // 100% utilization
		d2 := g.NextRequest(st)
		if d2 != d*2 {
			t.Fatalf("q=%d: %v -> %v, want doubling", q, d, d2)
		}
		d = d2
	}
}

func TestAGreedyMultiplicativeDecrease(t *testing.T) {
	g := DefaultAGreedy()
	g.InitialRequest()
	g.NextRequest(quantum(100, 1, 100, 100, false)) // -> 2
	g.NextRequest(quantum(100, 2, 100, 200, false)) // -> 4
	// Inefficient quantum: only 50% of allotted cycles used (< δ=0.8).
	d := g.NextRequest(&sched.QuantumStats{Allotment: 4, Length: 100, Steps: 100, Work: 200, CPL: 50})
	if d != 2 {
		t.Fatalf("inefficient quantum should halve: %v", d)
	}
}

func TestAGreedyDeprivedHolds(t *testing.T) {
	g := DefaultAGreedy()
	g.InitialRequest()
	g.NextRequest(quantum(100, 1, 100, 100, false)) // -> 2
	// Efficient but deprived: request unchanged.
	d := g.NextRequest(quantum(100, 1, 100, 100, true))
	if d != 2 {
		t.Fatalf("deprived efficient quantum should hold: %v", d)
	}
}

func TestAGreedyFloorAtOne(t *testing.T) {
	g := DefaultAGreedy()
	g.InitialRequest()
	// Inefficient from the start: request must not drop below 1.
	d := g.NextRequest(&sched.QuantumStats{Allotment: 1, Length: 100, Steps: 100, Work: 10, CPL: 10})
	if d != 1 {
		t.Fatalf("request below 1: %v", d)
	}
}

func TestAGreedyOscillatesOnConstantParallelism(t *testing.T) {
	// The instability of Figure 1: with constant parallelism A, once the
	// request exceeds A the quantum turns inefficient and the request
	// crashes, then climbs again — it never settles.
	g := DefaultAGreedy()
	const A = 10.0
	const L = 100
	d := g.InitialRequest()
	var ds []float64
	for q := 0; q < 40; q++ {
		alloc := int(math.Ceil(d))
		// Constant-parallelism execution: work ≈ min(a, A)·L.
		work := int64(math.Min(float64(alloc), A) * L)
		st := sched.QuantumStats{
			Allotment: alloc, Length: L, Steps: L,
			Work: work, CPL: float64(work) / A,
		}
		d = g.NextRequest(&st)
		ds = append(ds, d)
	}
	// Requests in the steady regime must keep changing (no fixed point).
	changes := 0
	for i := 20; i < len(ds); i++ {
		if ds[i] != ds[i-1] {
			changes++
		}
	}
	if changes == 0 {
		t.Fatalf("A-Greedy unexpectedly stabilised: %v", ds[20:])
	}
	// And must overshoot A at some point.
	over := false
	for _, v := range ds {
		if v > A {
			over = true
		}
	}
	if !over {
		t.Fatal("A-Greedy never overshot A")
	}
}

func TestAGreedyValidation(t *testing.T) {
	bad := []struct{ rho, delta float64 }{
		{1, 0.8}, {0.5, 0.8}, {2, 0}, {2, 1}, {math.NaN(), 0.5}, {2, math.NaN()},
	}
	for _, c := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ρ=%v δ=%v: expected panic", c.rho, c.delta)
				}
			}()
			NewAGreedy(c.rho, c.delta)
		}()
	}
	g := NewAGreedy(3, 0.5)
	if g.Rho() != 3 || g.Delta() != 0.5 {
		t.Fatal("accessors wrong")
	}
	if !strings.Contains(g.Name(), "A-Greedy") {
		t.Fatal("name wrong")
	}
	g.Reset()
	if g.InitialRequest() != 1 {
		t.Fatal("reset failed")
	}
}

func TestFixedGainTracksSlowly(t *testing.T) {
	// With K much smaller than A, the fixed-gain controller crawls: after
	// one update from d=1 it has moved by at most K.
	f := NewFixedGain(2)
	f.InitialRequest()
	d := f.NextRequest(quantum(100, 4, 100, 400, false))
	if d > 3+1e-9 {
		t.Fatalf("fixed gain moved too fast: %v", d)
	}
}

func TestFixedGainOscillatesWhenGainTooHigh(t *testing.T) {
	// Pole 1 − K/A: with K = 15 and A = 10 the pole is −0.5 — the request
	// alternates around A instead of converging monotonically.
	f := NewFixedGain(15)
	f.InitialRequest()
	var prev, cur float64 = 1, 0
	signFlips := 0
	for q := 0; q < 30; q++ {
		cur = f.NextRequest(quantum(10, 4, 100, 400, false))
		if (cur-10)*(prev-10) < 0 {
			signFlips++
		}
		prev = cur
	}
	if signFlips == 0 {
		t.Fatal("expected oscillation around the target")
	}
}

func TestFixedGainValidationAndIdentity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for K<=0")
		}
	}()
	f := NewFixedGain(5)
	if !strings.Contains(f.Name(), "FixedGain") {
		t.Fatal("name wrong")
	}
	f.Reset()
	if f.InitialRequest() != 1 {
		t.Fatal("reset failed")
	}
	if f.NextRequest(&sched.QuantumStats{}) != 1 {
		t.Fatal("empty quantum should hold request")
	}
	NewFixedGain(0)
}

func TestStatic(t *testing.T) {
	s := NewStatic(64)
	if s.InitialRequest() != 64 || s.NextRequest(&sched.QuantumStats{}) != 64 {
		t.Fatal("static request wrong")
	}
	s.Reset()
	if !strings.Contains(s.Name(), "Static") {
		t.Fatal("name wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n<1")
		}
	}()
	NewStatic(0)
}

func TestFactories(t *testing.T) {
	for _, f := range []Factory{
		AControlFactory(0.2), AGreedyFactory(2, 0.8), FixedGainFactory(3), StaticFactory(8),
	} {
		a, b := f(), f()
		if a == b {
			t.Fatal("factory returned shared instance")
		}
		if a.InitialRequest() < 1 {
			t.Fatal("initial request below 1")
		}
	}
}

// TestAControlRequestStaysWithinParallelismEnvelope is a property test of
// Lemma 2's intuition: the request is always a convex combination of 1 and
// past measured parallelisms, so it stays within [min A, max A] once seeded.
func TestAControlRequestStaysWithinParallelismEnvelope(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		r := rng.Float64() * 0.95
		c := NewAControl(r)
		d := c.InitialRequest()
		lo, hi := 1.0, 1.0
		for q := 0; q < 50; q++ {
			a := 1 + rng.Float64()*127
			if a < lo {
				lo = a
			}
			if a > hi {
				hi = a
			}
			d = c.NextRequest(quantum(a, int(math.Ceil(d)), 100, int64(100*a), false))
			if d < lo-1e-9 || d > hi+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAGreedyRequestsArePowersOfRho: starting from 1, A-Greedy requests are
// always exact powers of ρ (clamped at 1) — the discreteness that causes the
// oscillation the paper criticises.
func TestAGreedyRequestsArePowersOfRho(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		g := DefaultAGreedy()
		d := g.InitialRequest()
		for q := 0; q < 30; q++ {
			work := int64(rng.Intn(int(d)*100 + 1))
			st := sched.QuantumStats{
				Allotment: int(d), Length: 100, Steps: 100,
				Work: work, CPL: math.Max(1, float64(work)/8), Deprived: rng.Float64() < 0.3,
			}
			d = g.NextRequest(&st)
			log2 := math.Log2(d)
			if math.Abs(log2-math.Round(log2)) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
