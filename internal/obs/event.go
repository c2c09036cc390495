// Package obs is the live instrumentation layer of the repository: a typed
// event bus fed by the simulation engines, a metrics registry published via
// expvar, structured logging built on log/slog, a Perfetto/Chrome
// trace-event exporter, and an optional debug HTTP server (pprof + expvar).
//
// Everything the post-hoc analysis sees — requests d(q), allotments a(q),
// measured parallelism A(q), deprived↔satisfied transitions, allocator
// decisions — is also emitted as it happens, so a run of millions of quanta
// can be watched in flight instead of reconstructed from a trace dump
// afterwards.
//
// The layer is free when unused: a nil *Bus (the zero value of every engine
// config) reduces every emission site to a nil check, and a Bus with no
// subscribers to one atomic load. No event value is constructed on either
// disabled path.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Kind discriminates the typed events of the simulation taxonomy.
type Kind uint8

// The event taxonomy. One simulation quantum emits, in order: EvRequest
// (the feedback policy issued d(q)), EvAllotment (the OS allocator granted
// a(q)), then after execution EvQuantumEnd with the measured statistics and,
// when the deprivation state flipped, EvDeprived or EvSatisfied. Job
// lifecycle is bracketed by EvJobAdmitted and EvJobCompleted, and
// multiprogrammed engines emit one EvAllocDecision per global boundary
// summarising the allocator's verdict over the whole job set.
const (
	// EvJobAdmitted fires when a job enters the system (single-job runs: at
	// simulation start; multiprogrammed runs: at the first boundary at or
	// after its release). Work and Parallelism carry T1 and T1/T∞.
	EvJobAdmitted Kind = iota + 1
	// EvRequest fires when a feedback policy issues a request: Request is
	// the continuous d(q), IntRequest its integer rounding.
	EvRequest
	// EvAllotment fires when the allocator grants a(q) to one job;
	// Deprived reports a(q) < request.
	EvAllotment
	// EvQuantumEnd fires at the quantum boundary after execution, carrying
	// the measured quantum: Steps, Work T1(q), Waste, Parallelism A(q),
	// Completed.
	EvQuantumEnd
	// EvDeprived and EvSatisfied fire when a job transitions into or out of
	// deprivation (a(q) < request) relative to its previous quantum.
	EvDeprived
	EvSatisfied
	// EvJobCompleted fires when a job's last task finishes; Time is the
	// completion step and Work the job's total work T1.
	EvJobCompleted
	// EvAllocDecision summarises one multi-job allocation round (or one
	// instrumented single grant): Name is the allocator, P the machine
	// size, IntRequest the summed requests and Allotment the summed grants.
	EvAllocDecision
	// EvCapacity fires when the machine's effective processor count P(t)
	// changes (capacity churn, node unplug/replug): P is the new capacity,
	// Time/Quantum locate the boundary at which it took effect.
	EvCapacity
	// EvFault fires when the fault-injection layer perturbs the run: Name
	// is the fault kind ("drop", "delay", "dup", "noise"), Job/Quantum the
	// victim, and Request the affected value (the request that was lost or
	// the parallelism after noise).
	EvFault
	// EvJobRestarted fires when a job aborts mid-DAG and restarts from
	// scratch with its feedback state reset; Work is the completed work
	// lost to the failure.
	EvJobRestarted
	// EvWarning fires when a component sanitised corrupt input instead of
	// propagating it (e.g. a feedback policy holding its previous request
	// on a non-finite measurement); Name carries the message.
	EvWarning
)

// String returns the kind's snake_case name (also used as a metric label).
func (k Kind) String() string {
	switch k {
	case EvJobAdmitted:
		return "job_admitted"
	case EvRequest:
		return "request"
	case EvAllotment:
		return "allotment"
	case EvQuantumEnd:
		return "quantum_end"
	case EvDeprived:
		return "deprived"
	case EvSatisfied:
		return "satisfied"
	case EvJobCompleted:
		return "job_completed"
	case EvAllocDecision:
		return "alloc_decision"
	case EvCapacity:
		return "capacity"
	case EvFault:
		return "fault"
	case EvJobRestarted:
		return "job_restarted"
	case EvWarning:
		return "warning"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one instrumentation sample. It is a flat value type — emitting
// one performs no allocation — whose fields are populated per Kind (see the
// Kind constants); unused fields are zero.
type Event struct {
	Kind Kind
	// Time is the absolute simulation step at which the event occurred.
	Time int64
	// Quantum is the quantum index: per-job (1-based) for job-scoped
	// events, the global boundary count for EvAllocDecision.
	Quantum int
	// Job is the index of the job within its job set; 0 for single-job
	// runs, -1 when the event is not job-scoped.
	Job int
	// Name labels the job (job-scoped events) or allocator
	// (EvAllocDecision); may be empty.
	Name string

	Request     float64 // d(q), the continuous request
	IntRequest  int     // ⌈d(q)⌉ presented to the allocator (summed for EvAllocDecision)
	Allotment   int     // a(q) granted (summed for EvAllocDecision)
	P           int     // machine size, EvAllocDecision only
	Steps       int     // steps executed in the quantum
	Work        int64   // T1(q), or the job's total T1 for lifecycle events
	Waste       int64   // allotted-but-unused cycles of the quantum
	Response    int64   // completion − release, EvJobCompleted only
	Parallelism float64 // A(q); average parallelism T1/T∞ for EvJobAdmitted
	Deprived    bool    // a(q) < request
	Completed   bool    // the job finished during this quantum
}

// Subscriber consumes events. OnEvent is called synchronously from the
// emitting goroutine; implementations that need isolation should hand off to
// their own channel. A subscriber used from the parallel sweep runners must
// be safe for concurrent OnEvent calls.
type Subscriber interface {
	OnEvent(Event)
}

// SubscriberFunc adapts a function to the Subscriber interface.
type SubscriberFunc func(Event)

// OnEvent implements Subscriber.
func (f SubscriberFunc) OnEvent(e Event) { f(e) }

// Bus fans events out to its subscribers. The zero value is ready to use,
// and all methods are safe on a nil receiver (a nil *Bus is the canonical
// "observability off" value). Subscribe/Unsubscribe are safe concurrently
// with Emit: the subscriber slice is copy-on-write behind an atomic pointer,
// so the emission path is a single atomic load and never takes a lock.
type Bus struct {
	mu   sync.Mutex // serialises subscription changes only
	subs atomic.Pointer[[]*subEntry]
}

// subEntry gives each subscription a unique identity, so unsubscribing
// works for non-comparable subscribers (e.g. SubscriberFunc) too.
type subEntry struct {
	s Subscriber
}

// NewBus returns an empty event bus.
func NewBus() *Bus { return &Bus{} }

// Active reports whether any subscriber is attached. Emission sites use it
// to skip event construction entirely: it is a nil check plus one atomic
// load, with no allocation.
func (b *Bus) Active() bool {
	if b == nil {
		return false
	}
	p := b.subs.Load()
	return p != nil && len(*p) > 0
}

// Emit fans the event out to every subscriber in subscription order. It is
// a no-op on a nil bus or with no subscribers.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	p := b.subs.Load()
	if p == nil {
		return
	}
	for _, entry := range *p {
		entry.s.OnEvent(e)
	}
}

// Subscribe attaches s and returns a function that detaches it again.
// Subscribing a nil subscriber or subscribing on a nil bus panics (a nil bus
// means observability was never requested; subscribing to it would silently
// observe nothing).
func (b *Bus) Subscribe(s Subscriber) (unsubscribe func()) {
	if b == nil {
		panic("obs: subscribe on nil bus")
	}
	if s == nil {
		panic("obs: nil subscriber")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	entry := &subEntry{s: s}
	old := b.subs.Load()
	var next []*subEntry
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, entry)
	b.subs.Store(&next)
	var once sync.Once
	return func() {
		once.Do(func() { b.remove(entry) })
	}
}

// remove detaches one subscription entry.
func (b *Bus) remove(entry *subEntry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := b.subs.Load()
	if old == nil {
		return
	}
	next := make([]*subEntry, 0, len(*old))
	for _, have := range *old {
		if have != entry {
			next = append(next, have)
		}
	}
	b.subs.Store(&next)
}

// Recorder is a Subscriber that appends every event to an in-memory slice —
// the test and debugging sink. Safe for concurrent emitters.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// OnEvent implements Subscriber.
func (r *Recorder) OnEvent(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}
