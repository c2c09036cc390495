package feedback

import (
	"fmt"
	"math"

	"abg/internal/obs"
	"abg/internal/sched"
)

// AutoRate is A-Control with the convergence rate chosen from an online
// historical characterization of the workload — the procedure the paper
// assumes but leaves abstract ("the convergence rate is chosen based on
// some historical characterization of the workload, which ensures that it
// can satisfy the requirement [r < 1/C_L]", §6.2 remark).
//
// The policy tracks Ĉ_L, the largest adjacent-quantum parallelism ratio
// observed so far (with A(0)=1, as in the definition), and uses
//
//	r(q) = min(RMax, Safety / Ĉ_L)
//
// for the integral update. Safety < 1 keeps r strictly below 1/Ĉ_L so the
// waste bound (Theorem 4) applies throughout; RMax caps the smoothing for
// benign workloads.
type AutoRate struct {
	rMax   float64
	safety float64
	d      float64
	prevA  float64
	clHat  float64
	bus    *obs.Bus
}

// NewAutoRate returns an auto-tuning A-Control. rMax ∈ [0,1) caps the rate
// (the paper's fixed setting would be rMax=0.2); safety ∈ (0,1) is the
// margin below 1/Ĉ_L.
func NewAutoRate(rMax, safety float64) *AutoRate {
	if rMax < 0 || rMax >= 1 || math.IsNaN(rMax) {
		panic(fmt.Sprintf("feedback: AutoRate rMax %v outside [0,1)", rMax))
	}
	if safety <= 0 || safety >= 1 || math.IsNaN(safety) {
		panic(fmt.Sprintf("feedback: AutoRate safety %v outside (0,1)", safety))
	}
	return &AutoRate{rMax: rMax, safety: safety, d: 1, prevA: 1, clHat: 1}
}

// DefaultAutoRate returns AutoRate with rMax=0.2 (the paper's fixed rate as
// the ceiling) and safety 0.5.
func DefaultAutoRate() *AutoRate { return NewAutoRate(0.2, 0.5) }

// AutoRateFactory returns a Factory producing NewAutoRate(rMax, safety).
func AutoRateFactory(rMax, safety float64) Factory {
	return func() Policy { return NewAutoRate(rMax, safety) }
}

// Rate returns the rate the policy would use right now.
func (a *AutoRate) Rate() float64 {
	r := a.safety / a.clHat
	if r > a.rMax {
		r = a.rMax
	}
	return r
}

// ObservedTransitionFactor returns Ĉ_L so far.
func (a *AutoRate) ObservedTransitionFactor() float64 { return a.clHat }

// InitialRequest implements Policy.
func (a *AutoRate) InitialRequest() float64 {
	a.d = 1
	a.prevA = 1
	a.clHat = 1
	return a.d
}

// NextRequest implements Policy. Corrupt measurements are sanitised to the
// previous request (see Observable): folding a NaN into either the request
// or the Ĉ_L estimate would poison the rate schedule permanently.
func (a *AutoRate) NextRequest(prev *sched.QuantumStats) float64 {
	A, poisoned := measuredA(prev)
	if poisoned {
		warnHeld(a.bus, a.Name(), prev)
		return a.d
	}
	if A <= 0 {
		return a.d
	}
	if prev.Full() {
		ratio := A / a.prevA
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > a.clHat {
			a.clHat = ratio
		}
		a.prevA = A
	}
	r := a.Rate()
	a.d = r*a.d + (1-r)*A
	return a.d
}

// Observe implements Observable.
func (a *AutoRate) Observe(bus *obs.Bus) { a.bus = bus }

// Name implements Policy.
func (a *AutoRate) Name() string {
	return fmt.Sprintf("AutoRate(rMax=%g,safety=%g)", a.rMax, a.safety)
}

// Reset implements Policy. It restores the exact constructed state —
// request, previous-parallelism memory, and the Ĉ_L estimate driving the
// rate schedule — so Reset() ≡ NewAutoRate(rMax, safety) behaviourally
// (the reset-equivalence tests pin this for every controller).
func (a *AutoRate) Reset() {
	a.d = 1
	a.prevA = 1
	a.clHat = 1
}
