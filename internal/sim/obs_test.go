package sim

import (
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/workload"
)

// countKinds tallies recorded events per kind.
func countKinds(events []obs.Event) map[obs.Kind]int {
	out := make(map[obs.Kind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

func TestRunSingleEmitsEventStream(t *testing.T) {
	const width, L = 6, 50
	p := workload.ConstantJob(width, 8, L)
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()

	res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(64), SingleConfig{L: L, KeepTrace: true, Obs: bus})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if events[0].Kind != obs.EvJobAdmitted {
		t.Fatalf("first event %v, want job_admitted", events[0].Kind)
	}
	if last := events[len(events)-1]; last.Kind != obs.EvJobCompleted {
		t.Fatalf("last event %v, want job_completed", last.Kind)
	} else if last.Response != res.Runtime {
		t.Fatalf("completion response %d, want runtime %d", last.Response, res.Runtime)
	}
	counts := countKinds(events)
	if counts[obs.EvRequest] != res.NumQuanta || counts[obs.EvAllotment] != res.NumQuanta ||
		counts[obs.EvQuantumEnd] != res.NumQuanta {
		t.Fatalf("per-quantum event counts %v, want %d each", counts, res.NumQuanta)
	}
	// Unconstrained allocator: never deprived, so no transitions.
	if counts[obs.EvDeprived] != 0 || counts[obs.EvSatisfied] != 0 {
		t.Fatalf("unexpected deprivation transitions: %v", counts)
	}
	// The quantum-end stream mirrors the kept trace.
	qi := 0
	for _, e := range events {
		if e.Kind != obs.EvQuantumEnd {
			continue
		}
		st := res.Quanta[qi]
		if e.Quantum != st.Index || e.Steps != st.Steps || e.Work != st.Work ||
			e.Time != st.Start+int64(st.Steps) {
			t.Fatalf("quantum_end %d = %+v, trace %+v", qi, e, st)
		}
		qi++
	}
}

func TestRunSingleDeprivationTransitions(t *testing.T) {
	const width, L = 12, 40
	p := workload.ConstantJob(width, 12, L)
	// Availability alternates between plentiful and starved in blocks, so
	// the job crosses the deprived boundary at least twice.
	avail := func(q int) int {
		if (q/3)%2 == 1 {
			return 2
		}
		return 64
	}
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	_, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewAvailabilityTrace(64, avail, "blocky"), SingleConfig{L: L, Obs: bus})
	if err != nil {
		t.Fatal(err)
	}
	counts := countKinds(rec.Events())
	if counts[obs.EvDeprived] == 0 {
		t.Fatal("no deprived transition emitted under a starving allocator")
	}
	if counts[obs.EvSatisfied] == 0 {
		t.Fatal("no satisfied transition emitted after availability returned")
	}
	// Transitions alternate: deprived and satisfied counts differ by ≤ 1.
	diff := counts[obs.EvDeprived] - counts[obs.EvSatisfied]
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("transitions do not alternate: %v", counts)
	}
}

func TestRunSingleStartStamps(t *testing.T) {
	p := workload.ConstantJob(4, 6, 30)
	res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(16), SingleConfig{L: 30, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var at int64
	for i, q := range res.Quanta {
		if q.Start != at {
			t.Fatalf("quantum %d starts at %d, want %d", i, q.Start, at)
		}
		at += int64(q.Steps)
	}
	if at != res.Runtime {
		t.Fatalf("start+steps chain ends at %d, runtime %d", at, res.Runtime)
	}
}

func TestRunMultiEmitsEventStream(t *testing.T) {
	const L = 25
	specs := []JobSpec{
		abgSpec("a", 0, workload.ConstantJob(8, 6, L)),
		abgSpec("b", L, workload.ConstantJob(8, 6, L)),
	}
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	res, err := RunMulti(specs, MultiConfig{
		P: 8, L: L, Allocator: alloc.DynamicEquiPartition{}, KeepTrace: true, Obs: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	counts := countKinds(events)
	if counts[obs.EvJobAdmitted] != 2 || counts[obs.EvJobCompleted] != 2 {
		t.Fatalf("job lifecycle counts: %v", counts)
	}
	if counts[obs.EvAllocDecision] != res.QuantaElapsed {
		t.Fatalf("alloc decisions %d, want one per boundary %d",
			counts[obs.EvAllocDecision], res.QuantaElapsed)
	}
	wantQuanta := res.Jobs[0].NumQuanta + res.Jobs[1].NumQuanta
	if counts[obs.EvQuantumEnd] != wantQuanta {
		t.Fatalf("quantum_end events %d, want %d", counts[obs.EvQuantumEnd], wantQuanta)
	}
	// Job b is admitted at its release boundary, not before.
	for _, e := range events {
		if e.Kind == obs.EvJobAdmitted && e.Name == "b" {
			if e.Time < specs[1].Release {
				t.Fatalf("job b admitted at %d before release %d", e.Time, specs[1].Release)
			}
		}
		if e.Kind == obs.EvJobCompleted {
			j := res.Jobs[e.Job]
			if e.Response != j.Response || e.Time != j.Completion {
				t.Fatalf("completion event %+v disagrees with outcome %+v", e, j)
			}
		}
		if e.Kind == obs.EvAllocDecision {
			if e.Name != "dynamic-equi-partitioning" || e.P != 8 {
				t.Fatalf("alloc decision %+v", e)
			}
		}
	}
}

func TestRunSingleAdaptiveLEmits(t *testing.T) {
	p := workload.ConstantJob(5, 10, 40)
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	defer bus.Subscribe(rec)()
	res, err := RunSingleAdaptiveL(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
		alloc.NewUnconstrained(16), AdaptiveLConfig{LMin: 10, LMax: 80, Obs: bus})
	if err != nil {
		t.Fatal(err)
	}
	counts := countKinds(rec.Events())
	if counts[obs.EvQuantumEnd] != res.NumQuanta || counts[obs.EvJobCompleted] != 1 {
		t.Fatalf("adaptive-L event counts %v (quanta %d)", counts, res.NumQuanta)
	}
	if len(res.Quanta) != 0 {
		t.Fatal("trace kept without KeepTrace")
	}
}

// TestTraceRetentionOptIn: per-quantum traces are opt-in on both run
// paths — the zero value keeps none, KeepTrace keeps them.
func TestTraceRetentionOptIn(t *testing.T) {
	p := workload.ConstantJob(4, 4, 20)
	run := func(cfg SingleConfig) SingleResult {
		t.Helper()
		res, err := RunSingle(job.NewRun(p), feedback.NewAControl(0.2), sched.BGreedy(),
			alloc.NewUnconstrained(8), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(SingleConfig{L: 20}); len(res.Quanta) != 0 {
		t.Fatal("zero-value SingleConfig kept a trace")
	}
	if res := run(SingleConfig{L: 20, KeepTrace: true}); len(res.Quanta) == 0 {
		t.Fatal("KeepTrace dropped the trace")
	}

	mrun := func(cfg MultiConfig) MultiResult {
		t.Helper()
		cfg.P, cfg.L, cfg.Allocator = 8, 20, alloc.DynamicEquiPartition{}
		res, err := RunMulti([]JobSpec{abgSpec("a", 0, workload.ConstantJob(4, 4, 20))}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := mrun(MultiConfig{}); len(res.Jobs[0].Quanta) != 0 {
		t.Fatal("zero-value MultiConfig kept traces")
	}
	if res := mrun(MultiConfig{KeepTrace: true}); len(res.Jobs[0].Quanta) == 0 {
		t.Fatal("MultiConfig.KeepTrace dropped traces")
	}
}
