package sim

import (
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/fault"
	"abg/internal/obs"
)

// timelineRun drives the equivSpecs job set through an engine with the given
// TimelineRing setting and returns the engine, result, and event stream.
func timelineRun(t *testing.T, ring int) (*Engine, MultiResult, []obs.Event) {
	t.Helper()
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	eng, err := NewEngine(MultiConfig{
		P: 16, L: 50, Allocator: alloc.DynamicEquiPartition{},
		Obs: bus, TimelineRing: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range equivSpecs(t, fault.Plan{}, bus) {
		if _, err := eng.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return eng, res, rec.Events()
}

func TestTimelineObservational(t *testing.T) {
	// Enabling the timeline ring must leave the simulation bit-identical:
	// same MultiResult, same event stream, sample for sample.
	_, resOff, evOff := timelineRun(t, 0)
	engOn, resOn, evOn := timelineRun(t, 64)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Fatalf("TimelineRing perturbed the result:\noff=%+v\non=%+v", resOff, resOn)
	}
	if !reflect.DeepEqual(evOff, evOn) {
		t.Fatalf("TimelineRing perturbed the event stream (%d vs %d events)",
			len(evOff), len(evOn))
	}
	// And the timeline itself must agree with the authoritative outcome.
	for id := range resOn.Jobs {
		samples, evicted, ok := engOn.Timeline(id)
		if !ok {
			t.Fatalf("Timeline(%d) unknown id", id)
		}
		if evicted != 0 {
			t.Fatalf("job %d evicted %d samples with a 64-deep ring", id, evicted)
		}
		executed := 0
		var work int64
		for _, s := range samples {
			if s.Allotment > 0 {
				executed++
				work += s.Work
			} else if !s.Deprived || s.Steps != 0 {
				t.Fatalf("job %d stalled sample malformed: %+v", id, s)
			}
		}
		if executed != resOn.Jobs[id].NumQuanta {
			t.Fatalf("job %d timeline has %d executed quanta, outcome says %d",
				id, executed, resOn.Jobs[id].NumQuanta)
		}
		if work != resOn.Jobs[id].Work+resOn.Jobs[id].LostWork {
			t.Fatalf("job %d timeline work %d, outcome %d", id, work, resOn.Jobs[id].Work)
		}
		last := samples[len(samples)-1]
		if !last.Completed {
			t.Fatalf("job %d final sample not marked completed: %+v", id, last)
		}
	}
}

func TestTimelineRingBounded(t *testing.T) {
	bus := obs.NewBus()
	eng, err := NewEngine(MultiConfig{
		P: 16, L: 50, Allocator: alloc.DynamicEquiPartition{},
		Obs: bus, TimelineRing: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := equivSpecs(t, fault.Plan{}, bus)
	id, err := eng.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := res.Jobs[id].NumQuanta
	if total <= 4 {
		t.Fatalf("test job too short to exercise eviction: %d quanta", total)
	}
	samples, evicted, ok := eng.Timeline(id)
	if !ok || len(samples) != 4 {
		t.Fatalf("ring kept %d samples (ok=%v), want 4", len(samples), ok)
	}
	if evicted != total-4 {
		t.Fatalf("evicted = %d, want %d", evicted, total-4)
	}
	// Chronological order, ending at the final quantum.
	for i := 1; i < len(samples); i++ {
		if samples[i].Boundary <= samples[i-1].Boundary {
			t.Fatalf("samples out of order: %+v", samples)
		}
	}
	if got := samples[3].Quantum; got != total {
		t.Fatalf("last retained quantum = %d, want %d", got, total)
	}
	if !samples[3].Completed {
		t.Fatal("final quantum not marked completed")
	}

	// A ring grows on demand, then wraps: cap 5, three samples, then twelve.
	r := newTimelineRing(5)
	for q := 1; q <= 3; q++ {
		r.record(QuantumSample{Quantum: q})
	}
	if got := r.samples(); len(got) != 3 || got[0].Quantum != 1 || got[2].Quantum != 3 || r.total-len(r.buf) != 0 {
		t.Fatalf("after 3 samples: %+v (evicted %d), want quanta 1..3", got, r.total-len(r.buf))
	}
	for q := 4; q <= 15; q++ {
		r.record(QuantumSample{Quantum: q})
	}
	got := r.samples()
	if len(got) != 5 || len(r.buf) != 5 {
		t.Fatalf("after 15 samples the ring holds %d (buf %d), want 5", len(got), len(r.buf))
	}
	for i, s := range got {
		if s.Quantum != 11+i {
			t.Fatalf("after 15 samples: %+v, want quanta 11..15 oldest first", got)
		}
	}
	if ev := r.total - len(r.buf); ev != 10 {
		t.Fatalf("evicted = %d, want 10", ev)
	}
}

func TestTimelineDisabledAndUnknown(t *testing.T) {
	bus := obs.NewBus()
	eng, err := NewEngine(MultiConfig{
		P: 4, L: 50, Allocator: alloc.DynamicEquiPartition{}, Obs: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := equivSpecs(t, fault.Plan{}, bus)
	id, _ := eng.Submit(specs[0])
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if samples, evicted, ok := eng.Timeline(id); !ok || samples != nil || evicted != 0 {
		t.Fatalf("disabled timeline: samples=%v evicted=%d ok=%v", samples, evicted, ok)
	}
	if _, _, ok := eng.Timeline(99); ok {
		t.Fatal("unknown id reported ok")
	}
}
