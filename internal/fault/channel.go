package fault

import (
	"math"

	"abg/internal/feedback"
	"abg/internal/obs"
	"abg/internal/sched"
)

// Policy wraps a feedback policy with the plan's lossy-control-channel and
// measurement-noise semantics for the given job. The decorator sits between
// the scheduler's measurement and the allocator's view of the request:
//
//   - measurement noise (NoiseMul/NoiseAdd) perturbs A(q) before the inner
//     policy sees it, by rewriting the quantum's critical-path term so that
//     Work/CPL equals the noisy reading;
//   - channel faults (Drop/Delay/Dup) act on the *output*: the inner policy
//     still updates its state every quantum, but the request message for
//     quantum q+1 may be lost (the allocator reuses the last-seen request),
//     delayed Delay quanta, or duplicated with the copy arriving one quantum
//     late and overwriting whatever arrived in between — stale-state
//     semantics throughout.
//
// Every decision is a stateless hash of (Seed, job, quantum), so wrapped
// runs replay deterministically. When the plan has no channel component the
// inner policy is returned unchanged, keeping the zero-fault path
// bit-identical to the unwrapped simulator.
func (p Plan) Policy(inner feedback.Policy, jobID int, bus *obs.Bus) feedback.Policy {
	if !p.channelActive() {
		return inner
	}
	return &faultPolicy{plan: p, job: jobID, inner: inner, bus: bus}
}

// message is an in-flight request with its arrival quantum.
type message struct {
	due int
	val float64
}

// faultPolicy implements feedback.Policy by filtering the inner policy's
// requests through the plan's channel model.
type faultPolicy struct {
	plan  Plan
	job   int
	inner feedback.Policy
	bus   *obs.Bus

	q         int       // quanta seen since the last (re)start
	delivered float64   // last request the allocator received
	pending   []message // in-flight messages, in send order

	// noisy is the perturbed copy of a quantum's stats handed to the inner
	// policy when noise changes them; the caller's record stays as
	// measured. It is scratch, not state: snapshots leave it out.
	noisy sched.QuantumStats
}

// InitialRequest implements Policy. The admission handshake is assumed
// reliable: the initial request always arrives.
func (f *faultPolicy) InitialRequest() float64 {
	f.q = 0
	f.pending = f.pending[:0]
	f.delivered = f.inner.InitialRequest()
	return f.delivered
}

// NextRequest implements Policy.
func (f *faultPolicy) NextRequest(prev *sched.QuantumStats) float64 {
	f.q++
	q := f.q
	fresh := f.inner.NextRequest(f.perturb(prev, q))

	// Route this quantum's message through the channel.
	u := unit(f.plan.Seed, saltChannel, uint64(f.job), uint64(q))
	pDrop, pDelay, pDup := f.plan.Drop, f.plan.DelayProb, f.plan.Dup
	if f.plan.Delay <= 0 {
		pDelay = 0
	}
	switch {
	case u < pDrop:
		f.emit("drop", q, fresh)
	case u < pDrop+pDelay:
		f.pending = append(f.pending, message{due: q + f.plan.Delay, val: fresh})
		f.emit("delay", q, fresh)
	case u < pDrop+pDelay+pDup:
		f.pending = append(f.pending,
			message{due: q, val: fresh},
			message{due: q + 1, val: fresh})
		f.emit("dup", q, fresh)
	default:
		f.pending = append(f.pending, message{due: q, val: fresh})
	}

	// Deliver: among the messages due by now, the allocator sees the one
	// that arrived last (latest due; ties broken by send order, so a fresh
	// message beats a delayed one arriving at the same boundary).
	latest := -1
	for i, m := range f.pending {
		if m.due <= q && (latest < 0 || m.due >= f.pending[latest].due) {
			latest = i
		}
	}
	if latest >= 0 {
		f.delivered = f.pending[latest].val
	}
	keep := f.pending[:0]
	for _, m := range f.pending {
		if m.due > q {
			keep = append(keep, m)
		}
	}
	f.pending = keep
	return f.delivered
}

// perturb applies the plan's measurement noise to the quantum's stats,
// returning st itself when the reading is unchanged and f.noisy otherwise.
// The noisy parallelism is expressed through the critical-path term (the
// inner policies derive A(q) = Work/CPL), so a reading pushed to zero or
// below surfaces as the non-finite/negative sample the policy guards must
// absorb.
func (f *faultPolicy) perturb(st *sched.QuantumStats, q int) *sched.QuantumStats {
	if f.plan.NoiseMul == 0 && f.plan.NoiseAdd == 0 {
		return st
	}
	a := st.AvgParallelism()
	if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
		return st
	}
	noisy := a
	if f.plan.NoiseMul != 0 {
		u := 2*unit(f.plan.Seed, saltNoiseMul, uint64(f.job), uint64(q)) - 1
		noisy *= 1 + f.plan.NoiseMul*u
	}
	if f.plan.NoiseAdd != 0 {
		v := 2*unit(f.plan.Seed, saltNoiseAdd, uint64(f.job), uint64(q)) - 1
		noisy += f.plan.NoiseAdd * v
	}
	if noisy == a {
		return st
	}
	f.noisy = *st
	f.noisy.CPL = float64(st.Work) / noisy
	f.emit("noise", q, noisy)
	return &f.noisy
}

// emit reports an injected fault on the bus.
func (f *faultPolicy) emit(kind string, q int, val float64) {
	if !f.bus.Active() {
		return
	}
	f.bus.Emit(obs.Event{Kind: obs.EvFault, Quantum: q, Job: f.job,
		Name: kind, Request: val})
}

// Name implements Policy.
func (f *faultPolicy) Name() string { return f.inner.Name() + "+lossy" }

// Reset implements Policy, clearing the channel alongside the inner state
// (a restarted job re-registers with the allocator; stale messages from the
// aborted attempt are not delivered to the new one).
func (f *faultPolicy) Reset() {
	f.q = 0
	f.pending = f.pending[:0]
	f.delivered = 0
	f.inner.Reset()
}

// Observe implements feedback.Observable, forwarding to the inner policy.
func (f *faultPolicy) Observe(bus *obs.Bus) {
	f.bus = bus
	feedback.AttachObs(f.inner, bus)
}
