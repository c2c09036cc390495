// Package feedback implements the processor-request calculation schemes of
// the two-level scheduling framework: between scheduling quanta the task
// scheduler reports what happened (a sched.QuantumStats) and the policy
// answers with the processor request d(q+1) for the next quantum.
//
// Policies provided:
//
//   - AControl — the paper's contribution (§3–4): an adaptive integral
//     controller whose gain is retuned every quantum to K(q) = (1−r)·A(q−1),
//     giving d(q) = r·d(q−1) + (1−r)·A(q−1). Theorem 1: BIBO stability, zero
//     steady-state error, zero overshoot, convergence rate r.
//   - AGreedy — the baseline (Agrawal et al.): multiplicative increase /
//     multiplicative decrease steered by a utilization threshold.
//   - FixedGain — a non-adaptive integral controller, the ablation showing
//     why the gain must track the measured parallelism.
//   - Static — a constant request, modelling non-adaptive allocation.
//
// Policies are stateful and single-job; create one per job (see Factory).
package feedback

import (
	"fmt"
	"math"

	"abg/internal/obs"
	"abg/internal/sched"
)

// Policy computes processor requests between scheduling quanta. A policy is
// stateful: NextRequest folds the previous quantum's statistics into its
// state and returns d(q+1). Implementations must be deterministic.
type Policy interface {
	// InitialRequest returns d(1), the request for the first quantum.
	InitialRequest() float64
	// NextRequest returns the request for the quantum after *prev. prev
	// points at the caller's record of that quantum — the engine passes
	// the job's own last-quantum record, so the hot path copies no
	// QuantumStats. A policy reads *prev during the call only: it must not
	// modify it (the record is engine state, snapshotted and shown in job
	// status) and must not keep the pointer, whose record the next quantum
	// overwrites.
	NextRequest(prev *sched.QuantumStats) float64
	// Name identifies the policy in traces and tables.
	Name() string
	// Reset rewinds internal state so the policy can drive a new job.
	Reset()
}

// Factory builds a fresh policy instance per job.
type Factory func() Policy

// Observable is implemented by policies that can report sanitised inputs on
// an instrumentation bus: when a quantum measurement arrives corrupt
// (NaN/Inf parallelism, negative work or allotment, zero-length quantum —
// e.g. from a faulty sensor or the fault-injection layer), the policy holds
// its previous request and emits an obs.EvWarning instead of folding the
// poison into its integral state.
type Observable interface {
	// Observe attaches the bus warnings are emitted on (nil detaches).
	Observe(bus *obs.Bus)
}

// AttachObs attaches bus to pol when the policy supports it; unknown
// policies are left untouched.
func AttachObs(pol Policy, bus *obs.Bus) {
	if o, ok := pol.(Observable); ok {
		o.Observe(bus)
	}
}

// measuredA validates the quantum measurement and returns A(q). poisoned
// reports a corrupt measurement — non-finite or negative values, or a
// zero-length quantum — as opposed to a merely empty one (a == 0): a
// poisoned sample must not touch controller state, because the integral
// update d ← r·d + (1−r)·A would propagate a single NaN forever.
func measuredA(prev *sched.QuantumStats) (a float64, poisoned bool) {
	if prev.Length <= 0 || prev.Work < 0 || prev.Allotment < 0 ||
		math.IsNaN(prev.CPL) || math.IsInf(prev.CPL, 0) || prev.CPL < 0 {
		return 0, true
	}
	a = prev.AvgParallelism()
	if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
		return 0, true
	}
	return a, false
}

// warnHeld emits the sanitised-input warning for a policy holding its
// previous request. No-op without an active bus.
func warnHeld(bus *obs.Bus, policy string, prev *sched.QuantumStats) {
	if !bus.Active() {
		return
	}
	bus.Emit(obs.Event{Kind: obs.EvWarning, Time: prev.Start, Quantum: prev.Index,
		Name:    policy + ": corrupt quantum measurement, request held",
		Request: prev.Request, Allotment: prev.Allotment, Steps: prev.Steps,
		Work: prev.Work, Parallelism: prev.CPL})
}

// ---------------------------------------------------------------- A-Control

// AControl is the paper's adaptive integral controller. The controller
// output is kept continuous; the simulator rounds up when presenting the
// request to the OS allocator.
type AControl struct {
	r   float64 // convergence rate, 0 ≤ r < 1
	d   float64 // current request (continuous state)
	bus *obs.Bus
}

// NewAControl returns an A-Control policy with convergence rate r.
// r = 0 gives one-step convergence (d(q) = A(q−1)); the paper's simulations
// use r = 0.2. It panics unless 0 ≤ r < 1.
func NewAControl(r float64) *AControl {
	if r < 0 || r >= 1 || math.IsNaN(r) {
		panic(fmt.Sprintf("feedback: A-Control convergence rate %v outside [0,1)", r))
	}
	return &AControl{r: r, d: 1}
}

// AControlFactory returns a Factory producing NewAControl(r) policies.
func AControlFactory(r float64) Factory {
	return func() Policy { return NewAControl(r) }
}

// Rate returns the configured convergence rate.
func (c *AControl) Rate() float64 { return c.r }

// InitialRequest implements Policy: d(1) = 1.
func (c *AControl) InitialRequest() float64 {
	c.d = 1
	return c.d
}

// NextRequest implements Policy: d(q+1) = r·d(q) + (1−r)·A(q). An empty
// quantum (no work done, A undefined) leaves the request unchanged, and a
// corrupt measurement (NaN/Inf/negative, zero-length quantum) is sanitised
// to the previous request with an obs warning.
func (c *AControl) NextRequest(prev *sched.QuantumStats) float64 {
	a, poisoned := measuredA(prev)
	if poisoned {
		warnHeld(c.bus, c.Name(), prev)
		return c.d
	}
	if a <= 0 {
		return c.d
	}
	d := c.r*c.d + (1-c.r)*a
	if math.IsNaN(d) || math.IsInf(d, 0) {
		warnHeld(c.bus, c.Name(), prev)
		return c.d
	}
	c.d = d
	return c.d
}

// Observe implements Observable.
func (c *AControl) Observe(bus *obs.Bus) { c.bus = bus }

// Name implements Policy.
func (c *AControl) Name() string { return fmt.Sprintf("A-Control(r=%g)", c.r) }

// Reset implements Policy.
func (c *AControl) Reset() { c.d = 1 }

// ----------------------------------------------------------------- A-Greedy

// AGreedy is the multiplicative-increase multiplicative-decrease request
// policy of Agrawal, He, Hsu and Leiserson. A quantum is "efficient" when
// the job used at least a δ fraction of the allotted processor cycles;
// requests are multiplied by ρ after an efficient-and-satisfied quantum,
// divided by ρ after an inefficient one, and held after an
// efficient-but-deprived one.
type AGreedy struct {
	rho   float64 // multiplicative factor ρ > 1
	delta float64 // utilization threshold 0 < δ < 1
	d     float64
	bus   *obs.Bus
}

// NewAGreedy returns an A-Greedy policy. The paper's simulations use the
// settings of He et al. [12]: ρ = 2 (the "multiplicative factor of
// A-Greedy is set to 2") and utilization threshold δ = 0.8.
func NewAGreedy(rho, delta float64) *AGreedy {
	if rho <= 1 || math.IsNaN(rho) {
		panic(fmt.Sprintf("feedback: A-Greedy ρ = %v must exceed 1", rho))
	}
	if delta <= 0 || delta >= 1 || math.IsNaN(delta) {
		panic(fmt.Sprintf("feedback: A-Greedy δ = %v outside (0,1)", delta))
	}
	return &AGreedy{rho: rho, delta: delta, d: 1}
}

// DefaultAGreedy returns A-Greedy with the paper's parameters (ρ=2, δ=0.8).
func DefaultAGreedy() *AGreedy { return NewAGreedy(2, 0.8) }

// AGreedyFactory returns a Factory producing NewAGreedy(rho, delta).
func AGreedyFactory(rho, delta float64) Factory {
	return func() Policy { return NewAGreedy(rho, delta) }
}

// Rho returns the multiplicative factor.
func (g *AGreedy) Rho() float64 { return g.rho }

// Delta returns the utilization threshold.
func (g *AGreedy) Delta() float64 { return g.delta }

// InitialRequest implements Policy: d(1) = 1.
func (g *AGreedy) InitialRequest() float64 {
	g.d = 1
	return g.d
}

// NextRequest implements Policy. A corrupt measurement (negative work or
// allotment, zero-length quantum) is sanitised to the previous request with
// an obs warning — the utilization test would otherwise misclassify the
// quantum as inefficient and halve the request on garbage input.
func (g *AGreedy) NextRequest(prev *sched.QuantumStats) float64 {
	if prev.Length <= 0 || prev.Work < 0 || prev.Allotment < 0 {
		warnHeld(g.bus, g.Name(), prev)
		return g.d
	}
	// Usage is the number of non-idle processor cycles; with unit tasks that
	// is exactly the quantum work T1(q).
	allotted := float64(prev.Allotment) * float64(prev.Length)
	efficient := allotted > 0 && float64(prev.Work) >= g.delta*allotted
	switch {
	case !efficient:
		g.d /= g.rho
	case efficient && prev.Deprived:
		// Keep the request: the job was efficient on everything it got but
		// did not get what it asked for.
	default: // efficient and satisfied
		g.d *= g.rho
	}
	if g.d < 1 {
		g.d = 1
	}
	return g.d
}

// Observe implements Observable.
func (g *AGreedy) Observe(bus *obs.Bus) { g.bus = bus }

// Name implements Policy.
func (g *AGreedy) Name() string { return fmt.Sprintf("A-Greedy(ρ=%g,δ=%g)", g.rho, g.delta) }

// Reset implements Policy.
func (g *AGreedy) Reset() { g.d = 1 }

// ---------------------------------------------------------------- FixedGain

// FixedGain is an integral controller with a constant gain K:
// d(q+1) = d(q) + K·e(q) with e(q) = 1 − d(q)/A(q). It is the ablation
// contrasting with A-Control: when K is not retuned to (1−r)·A, the
// closed-loop pole 1 − K/A drifts with the job's parallelism, so the
// controller is sluggish for A ≫ K and oscillates or diverges for A < K/2.
type FixedGain struct {
	k   float64
	d   float64
	bus *obs.Bus
}

// NewFixedGain returns a fixed-gain integral controller. K must be positive.
func NewFixedGain(k float64) *FixedGain {
	if k <= 0 || math.IsNaN(k) {
		panic(fmt.Sprintf("feedback: fixed gain %v must be positive", k))
	}
	return &FixedGain{k: k, d: 1}
}

// FixedGainFactory returns a Factory producing NewFixedGain(k).
func FixedGainFactory(k float64) Factory {
	return func() Policy { return NewFixedGain(k) }
}

// InitialRequest implements Policy.
func (f *FixedGain) InitialRequest() float64 {
	f.d = 1
	return f.d
}

// NextRequest implements Policy.
func (f *FixedGain) NextRequest(prev *sched.QuantumStats) float64 {
	a, poisoned := measuredA(prev)
	if poisoned {
		warnHeld(f.bus, f.Name(), prev)
		return f.d
	}
	if a <= 0 {
		return f.d
	}
	e := 1 - f.d/a
	d := f.d + f.k*e
	if math.IsNaN(d) || math.IsInf(d, 0) {
		warnHeld(f.bus, f.Name(), prev)
		return f.d
	}
	f.d = d
	if f.d < 1 {
		f.d = 1
	}
	return f.d
}

// Observe implements Observable.
func (f *FixedGain) Observe(bus *obs.Bus) { f.bus = bus }

// Name implements Policy.
func (f *FixedGain) Name() string { return fmt.Sprintf("FixedGain(K=%g)", f.k) }

// Reset implements Policy.
func (f *FixedGain) Reset() { f.d = 1 }

// ------------------------------------------------------------------- Static

// Static always requests the same number of processors, modelling a
// conventional non-adaptive allocation.
type Static struct {
	n float64
}

// NewStatic returns a policy that always requests n processors.
func NewStatic(n int) *Static {
	if n < 1 {
		panic("feedback: static request must be >= 1")
	}
	return &Static{n: float64(n)}
}

// StaticFactory returns a Factory producing NewStatic(n).
func StaticFactory(n int) Factory {
	return func() Policy { return NewStatic(n) }
}

// InitialRequest implements Policy.
func (s *Static) InitialRequest() float64 { return s.n }

// NextRequest implements Policy.
func (s *Static) NextRequest(*sched.QuantumStats) float64 { return s.n }

// Name implements Policy.
func (s *Static) Name() string { return fmt.Sprintf("Static(%g)", s.n) }

// Reset implements Policy.
func (s *Static) Reset() {}
