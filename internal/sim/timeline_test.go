package sim

import (
	"reflect"
	"testing"
	"unsafe"

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

// TestTimelineRestartMarkers: with restarts armed, the sample of every
// quantum after which a job restarted carries Restarted, and no other
// does; the marker keeps a sample at 80 B.
func TestTimelineRestartMarkers(t *testing.T) {
	if size := unsafe.Sizeof(QuantumSample{}); size != 80 {
		t.Fatalf("QuantumSample is %d B, want 80", size)
	}
	plan, err := fault.ParseSpec("restart=0.5,restartat=1,maxrestarts=3,seed=7", 16)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	eng, err := NewEngine(MultiConfig{
		P: 16, L: 50, Allocator: alloc.DynamicEquiPartition{},
		Obs: bus, TimelineRing: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range equivSpecs(t, plan, bus) {
		if _, err := eng.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]bool{} // (job, quantum) of every restart event
	for _, e := range rec.Events() {
		if e.Kind == obs.EvJobRestarted {
			want[[2]int{e.Job, e.Quantum}] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("no job restarted; the test shows nothing")
	}
	marked := 0
	for id, j := range res.Jobs {
		samples, _, _ := eng.Timeline(id)
		n := 0
		for _, q := range samples {
			if q.Restarted {
				n++
				if q.Allotment == 0 || !want[[2]int{id, q.Quantum}] {
					t.Fatalf("job %d: sample %+v is marked, but no restart followed it", id, q)
				}
			}
		}
		if n != j.Restarts {
			t.Fatalf("job %d: %d samples marked restarted, outcome counts %d restarts", id, n, j.Restarts)
		}
		marked += n
	}
	if marked != len(want) {
		t.Fatalf("%d samples marked, %d restart events", marked, len(want))
	}
}

// TestDoneTimelinesExactSize: a finished job's samples sit in a buffer of
// exactly their size, in the order Timeline returned while the job ran.
func TestDoneTimelinesExactSize(t *testing.T) {
	for _, ring := range []int{4, 256} {
		bus := obs.NewBus()
		eng, err := NewEngine(MultiConfig{
			P: 16, L: 50, Allocator: alloc.DynamicEquiPartition{},
			Obs: bus, TimelineRing: ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The last Timeline each job showed while it ran, read before
		// every Step.
		running := map[int][]QuantumSample{}
		for _, spec := range equivSpecs(t, fault.Plan{}, bus) {
			if _, err := eng.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		for !eng.Done() {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			for id := range eng.NumJobs() {
				samples, _, _ := eng.Timeline(id)
				if st, _ := eng.JobStatus(id); st.State != JobDone {
					running[id] = samples
				} else if last, ok := running[id]; ok && len(samples) > 0 {
					// Done now: the ring holds the running samples plus
					// the final quantum, which evicted at most one.
					grown := append(append([]QuantumSample(nil), last...), samples[len(samples)-1])
					if len(grown) > ring {
						grown = grown[1:]
					}
					if !reflect.DeepEqual(samples, grown) {
						t.Fatalf("ring %d job %d: done timeline %+v, want %+v", ring, id, samples, grown)
					}
					delete(running, id)
				}
			}
		}
		for id := range eng.NumJobs() {
			r := eng.states.at(id).timeline
			if r == nil || len(r.buf) == 0 {
				t.Fatalf("ring %d job %d: no samples", ring, id)
			}
			if cap(r.buf) != len(r.buf) {
				t.Fatalf("ring %d job %d: done buffer has room for %d samples, holds %d", ring, id, cap(r.buf), len(r.buf))
			}
		}
	}
}
