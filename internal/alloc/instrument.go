package alloc

import "abg/internal/obs"

// ObservedSingle wraps a Single allocator and emits one EvAllocDecision per
// grant, labelled with the inner allocator's name — allocator-level
// visibility independent of which engine drives it (the engines themselves
// only see the grant, not the allocator's identity).
type ObservedSingle struct {
	Inner Single
	Bus   *obs.Bus
}

// ObserveSingle wraps inner so every grant is published on bus. A nil bus
// returns inner unchanged (no wrapping cost when observability is off).
func ObserveSingle(inner Single, bus *obs.Bus) Single {
	if bus == nil {
		return inner
	}
	return ObservedSingle{Inner: inner, Bus: bus}
}

// Grant implements Single.
func (o ObservedSingle) Grant(q int, request int) int {
	a := o.Inner.Grant(q, request)
	if o.Bus.Active() {
		o.Bus.Emit(obs.Event{Kind: obs.EvAllocDecision, Quantum: q, Job: -1,
			Name: o.Inner.Name(), IntRequest: request, Allotment: a})
	}
	return a
}

// Name implements Single.
func (o ObservedSingle) Name() string { return o.Inner.Name() }
