package feedback

import (
	"math"
	"strings"
	"testing"

	"abg/internal/obs"
	"abg/internal/sched"
)

// goodStats returns a clean full quantum with parallelism `width` on
// `allot` processors.
func goodStats(width, allot int) *sched.QuantumStats {
	return &sched.QuantumStats{
		Index: 1, Length: 100, Steps: 100, Allotment: allot,
		Work: int64(width) * 100, CPL: 100,
	}
}

// guardCase is one corrupt measurement the policies must sanitise.
type guardCase struct {
	name string
	// cplBased marks corruption carried by the critical-path term, which
	// A-Greedy (utilization-driven, no CPL) legitimately never reads.
	cplBased bool
	stats    sched.QuantumStats
}

func guardCases() []guardCase {
	nan, inf := math.NaN(), math.Inf(1)
	return []guardCase{
		{"zero length", false, sched.QuantumStats{Length: 0, Steps: 0, Allotment: 4, Work: 400, CPL: 100}},
		{"negative length", false, sched.QuantumStats{Length: -100, Steps: 10, Allotment: 4, Work: 400, CPL: 100}},
		{"negative work", false, sched.QuantumStats{Length: 100, Steps: 100, Allotment: 4, Work: -1, CPL: 100}},
		{"negative allotment", false, sched.QuantumStats{Length: 100, Steps: 100, Allotment: -4, Work: 400, CPL: 100}},
		{"NaN critical path", true, sched.QuantumStats{Length: 100, Steps: 100, Allotment: 4, Work: 400, CPL: nan}},
		{"Inf critical path", true, sched.QuantumStats{Length: 100, Steps: 100, Allotment: 4, Work: 400, CPL: inf}},
		{"negative critical path", true, sched.QuantumStats{Length: 100, Steps: 100, Allotment: 4, Work: 400, CPL: -100}},
	}
}

// TestGuardsHoldRequestOnCorruptInput drives every controller to a
// steady-state request, feeds each corrupt measurement, and checks that the
// request is held, a warning is emitted, and the controller still works on
// the next clean measurement.
func TestGuardsHoldRequestOnCorruptInput(t *testing.T) {
	policies := []struct {
		name     string
		make     func() Policy
		skipsCPL bool // guard does not inspect CPL (A-Greedy)
	}{
		{"AControl", func() Policy { return NewAControl(0.2) }, false},
		{"AGreedy", func() Policy { return NewAGreedy(2, 0.8) }, true},
		{"FixedGain", func() Policy { return NewFixedGain(4) }, false},
		{"AutoRate", func() Policy { return DefaultAutoRate() }, false},
	}
	for _, pc := range policies {
		for _, gc := range guardCases() {
			if gc.cplBased && pc.skipsCPL {
				continue
			}
			t.Run(pc.name+"/"+gc.name, func(t *testing.T) {
				pol := pc.make()
				twin := pc.make() // sees only the clean measurements
				bus := obs.NewBus()
				rec := &obs.Recorder{}
				defer bus.Subscribe(rec)()
				AttachObs(pol, bus)

				pol.InitialRequest()
				twin.InitialRequest()
				var before float64
				for q := 0; q < 6; q++ {
					before = pol.NextRequest(goodStats(8, 8))
					twin.NextRequest(goodStats(8, 8))
				}

				got := pol.NextRequest(&gc.stats)
				if got != before {
					t.Fatalf("corrupt input moved request: %v -> %v", before, got)
				}
				warned := 0
				for _, e := range rec.Events() {
					if e.Kind == obs.EvWarning {
						warned++
						if !strings.Contains(e.Name, "request held") {
							t.Fatalf("warning name %q lacks explanation", e.Name)
						}
					}
				}
				if warned != 1 {
					t.Fatalf("want exactly 1 warning, got %d", warned)
				}

				// The poison must not have touched internal state: on the
				// next clean measurement the controller behaves exactly like
				// its twin, which never saw the corrupt quantum.
				after := pol.NextRequest(goodStats(8, 8))
				want := twin.NextRequest(goodStats(8, 8))
				if math.IsNaN(after) || math.IsInf(after, 0) {
					t.Fatalf("controller state poisoned: next request %v", after)
				}
				if after != want {
					t.Fatalf("state drifted from clean twin: %v != %v", after, want)
				}
			})
		}
	}
}

// TestGuardsNoWarningWithoutBus checks the guards are free when no
// observability was requested (nil bus) and on an empty-but-valid quantum.
func TestGuardsNoWarningWithoutBus(t *testing.T) {
	pol := NewAControl(0.2)
	pol.InitialRequest()
	d := pol.NextRequest(goodStats(8, 8))
	if got := pol.NextRequest(&sched.QuantumStats{Length: 0}); got != d {
		t.Fatalf("corrupt input moved request without bus: %v -> %v", d, got)
	}
	// Empty quantum (valid, no work): held, but NOT a warning case.
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	pol.Observe(bus)
	if got := pol.NextRequest(&sched.QuantumStats{Length: 100}); got != d {
		t.Fatalf("empty quantum moved request: %v -> %v", d, got)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvWarning {
			t.Fatalf("empty quantum wrongly warned: %v", e.Name)
		}
	}
}

// TestAGreedyGuardBeforeUtilization pins the ordering: on a zero-length
// quantum the old code divided the request by ρ (allotted cycles 0 →
// "inefficient"); the guard must fire first.
func TestAGreedyGuardBeforeUtilization(t *testing.T) {
	g := NewAGreedy(2, 0.8)
	g.InitialRequest()
	var d float64
	for q := 0; q < 4; q++ {
		d = g.NextRequest(goodStats(16, 16)) // efficient: grows
	}
	if d <= 1 {
		t.Fatalf("warm-up did not grow request: %v", d)
	}
	if got := g.NextRequest(&sched.QuantumStats{Length: 0, Allotment: 4}); got != d {
		t.Fatalf("zero-length quantum halved request: %v -> %v", d, got)
	}
}
