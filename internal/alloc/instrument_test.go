package alloc

import (
	"testing"

	"abg/internal/obs"
)

func TestObserveSingleNilBusPassthrough(t *testing.T) {
	inner := NewUnconstrained(8)
	if got := ObserveSingle(inner, nil); got != Single(inner) {
		t.Fatal("nil bus should return the inner allocator unwrapped")
	}
}

func TestObservedSingleEmits(t *testing.T) {
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()

	a := ObserveSingle(NewUnconstrained(8), bus)
	if a.Name() != "unconstrained(P=8)" {
		t.Fatalf("wrapped name %q", a.Name())
	}
	if got := a.Grant(3, 5); got != 5 {
		t.Fatalf("grant = %d, want 5", got)
	}
	events := rec.Events()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	e := events[0]
	if e.Kind != obs.EvAllocDecision || e.Quantum != 3 || e.Job != -1 ||
		e.Name != "unconstrained(P=8)" || e.IntRequest != 5 || e.Allotment != 5 {
		t.Fatalf("decision event %+v", e)
	}
}
