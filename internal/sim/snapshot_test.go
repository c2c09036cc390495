package sim

import (
	"fmt"
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/fault"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
)

// snapCfg is the machine used by the snapshot tests. Traces stay off:
// snapshots refuse KeepTrace engines.
func snapCfg(plan fault.Plan) MultiConfig {
	cfg := MultiConfig{P: 16, L: 50, Allocator: alloc.DynamicEquiPartition{}}
	if plan.Capacity != nil {
		cfg.Capacity = plan.Capacity
	}
	return cfg
}

// runSnapshotCase is the crash-recovery equivalence regression: step a
// reference engine to completion recording its event stream, then for
// several cut points run a victim engine to the cut, snapshot it, restore
// onto freshly built specs, and continue. The restored engine must
// reproduce the reference's MultiResult, final statuses, AND the exact
// suffix of the reference event stream — the property the live service's
// SSE sequence numbering relies on.
func runSnapshotCase(t *testing.T, plan fault.Plan) {
	t.Helper()

	// Reference run, with the recorded event count noted after every step.
	busR := obs.NewBus()
	recR := &obs.Recorder{}
	busR.Subscribe(recR)
	cfgR := snapCfg(plan)
	cfgR.Obs = busR
	engR, err := NewEngine(cfgR)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range equivSpecs(t, plan, busR) {
		if _, err := engR.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	prefix := []int{len(recR.Events())} // prefix[s] = events after s steps
	for !engR.Done() {
		if _, err := engR.Step(); err != nil {
			t.Fatal(err)
		}
		if prefix = append(prefix, len(recR.Events())); len(prefix) > DefaultMaxQuanta {
			t.Fatal("reference run did not terminate")
		}
	}
	total := len(prefix) - 1
	refRes := engR.Result()
	refEvents := recR.Events()

	cuts := []int{0, 1, 5, total / 2, total - 1, total}
	for _, cut := range cuts {
		// Victim: identical run stopped at the cut, then snapshotted.
		busV := obs.NewBus()
		cfgV := snapCfg(plan)
		cfgV.Obs = busV
		engV, err := NewEngine(cfgV)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range equivSpecs(t, plan, busV) {
			if _, err := engV.Submit(sp); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < cut; s++ {
			if _, err := engV.Step(); err != nil {
				t.Fatalf("cut %d: victim step %d: %v", cut, s, err)
			}
		}
		blob, err := engV.MarshalBinary()
		if err != nil {
			t.Fatalf("cut %d: marshal: %v", cut, err)
		}

		// Survivor: fresh specs, restored cursor, run to completion.
		busC := obs.NewBus()
		recC := &obs.Recorder{}
		busC.Subscribe(recC)
		cfgC := snapCfg(plan)
		cfgC.Obs = busC
		engC, err := RestoreEngine(cfgC, blob, equivSpecs(t, plan, busC))
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if got, want := engC.Boundary(), engV.Boundary(); got != want {
			t.Fatalf("cut %d: restored boundary %d, want %d", cut, got, want)
		}
		steps := 0
		for !engC.Done() {
			if _, err := engC.Step(); err != nil {
				t.Fatalf("cut %d: restored step: %v", cut, err)
			}
			if steps++; steps > total {
				t.Fatalf("cut %d: restored engine overran the reference (%d steps)", cut, total)
			}
		}
		if got := engC.Result(); !reflect.DeepEqual(got, refRes) {
			t.Fatalf("cut %d: restored result diverges:\n got %+v\nwant %+v", cut, got, refRes)
		}
		if got, want := engC.Statuses(), engR.Statuses(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restored statuses diverge:\n got %+v\nwant %+v", cut, got, want)
		}
		if got, want := recC.Events(), refEvents[prefix[cut]:]; !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restored event suffix diverges: %d events, want %d",
				cut, len(got), len(want))
		}
	}
}

// TestEngineSnapshotRoundTrip covers the fault-free job set, including the
// fast-forward idle gap.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	runSnapshotCase(t, fault.Plan{})
}

// TestEngineSnapshotRoundTripUnderFaults repeats the round trip with the
// full disturbance stack armed: lossy control channel with in-flight
// messages, measurement noise, capacity churn, and seeded restarts — the
// hardest state to carry across a crash.
func TestEngineSnapshotRoundTripUnderFaults(t *testing.T) {
	plan, err := fault.ParseSpec(
		"drop=0.15,delay=2:0.1,dup=0.1,noise=0.3,restart=0.1,restartat=2,maxrestarts=2,cap=churn:0.5:4,seed=11", 16)
	if err != nil {
		t.Fatal(err)
	}
	runSnapshotCase(t, plan)
}

// TestEngineSnapshotRejectsKeepTrace: per-quantum traces are not carried by
// snapshots, so a tracing engine must refuse to marshal rather than restore
// into a silently different result.
func TestEngineSnapshotRejectsKeepTrace(t *testing.T) {
	cfg := snapCfg(fault.Plan{})
	cfg.KeepTrace = true
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.MarshalBinary(); err == nil {
		t.Fatal("KeepTrace engine marshalled a snapshot")
	}
}

// TestRestoreEngineRejects pins clean failures for the ways a snapshot and
// its rebuilt job set can disagree.
func TestRestoreEngineRejects(t *testing.T) {
	cfg := snapCfg(fault.Plan{})
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range equivSpecs(t, fault.Plan{}, nil) {
		if _, err := eng.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreEngine(cfg, nil, equivSpecs(t, fault.Plan{}, nil)); err == nil {
		t.Error("restored from empty data")
	}
	if _, err := RestoreEngine(cfg, []byte("not a snapshot, definitely"), equivSpecs(t, fault.Plan{}, nil)); err == nil {
		t.Error("restored from garbage")
	}
	bad := append([]byte{}, blob...)
	bad[len(snapMagic)] = 200
	if _, err := RestoreEngine(cfg, bad, equivSpecs(t, fault.Plan{}, nil)); err == nil {
		t.Error("restored from future snapshot version")
	}
	if _, err := RestoreEngine(cfg, blob[:len(blob)-3], equivSpecs(t, fault.Plan{}, nil)); err == nil {
		t.Error("restored from truncated snapshot")
	}
	if _, err := RestoreEngine(cfg, append(append([]byte{}, blob...), 0), equivSpecs(t, fault.Plan{}, nil)); err == nil {
		t.Error("restored with trailing bytes")
	}
	if _, err := RestoreEngine(cfg, blob, equivSpecs(t, fault.Plan{}, nil)[:2]); err == nil {
		t.Error("restored onto too few specs")
	}
	wrong := equivSpecs(t, fault.Plan{}, nil)
	wrong[0].Inst = job.NewRun(job.Constant(2, 3)) // different workload
	if _, err := RestoreEngine(cfg, blob, wrong); err == nil {
		t.Error("restored onto a different workload")
	}
}

// TestEngineResumeStates pins the accessor a recovering service uses to
// re-prime run-scoped subscribers: started/done/deprivation/attempt-work
// must mirror the engine's own bookkeeping, and a done job has nothing
// left to resume.
func TestEngineResumeStates(t *testing.T) {
	eng, err := NewEngine(engCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(constSpec("a", 2, 400, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(constSpec("b", 2, 400, 10_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	rs := eng.ResumeStates()
	if len(rs) != 2 {
		t.Fatalf("ResumeStates len %d, want 2", len(rs))
	}
	if !rs[0].Started || rs[0].Done || rs[0].AttemptWork == 0 {
		t.Fatalf("job a resume state after one quantum: %+v", rs[0])
	}
	if rs[1].Started || rs[1].Done || rs[1].AttemptWork != 0 {
		t.Fatalf("pending job b resume state: %+v", rs[1])
	}
	for !eng.states.at(0).done {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if rs = eng.ResumeStates(); rs[0] != (ResumeState{Started: true, Done: true}) {
		t.Fatalf("job a resume state after completion: %+v", rs[0])
	}
}

// TestEngineTallyMatchesStatuses pins the engine's running counters to the
// values Statuses and Result give, after every Step of a faulted run
// (restarts, capacity churn, releases in the future with an idle gap, and
// a zero-work job) and after every Step of that run restored mid-way.
func TestEngineTallyMatchesStatuses(t *testing.T) {
	plan, err := fault.ParseSpec(
		"drop=0.15,delay=2:0.1,dup=0.1,noise=0.3,restart=0.1,restartat=2,maxrestarts=2,cap=churn:0.5:4,seed=11", 16)
	if err != nil {
		t.Fatal(err)
	}
	specs := func() []JobSpec {
		done := job.NewRun(job.Constant(1, 1))
		sched.RunQuantum(done, sched.BGreedy(), 1, 10)
		return append(equivSpecs(t, plan, obs.NewBus()), JobSpec{
			Name: "zero", Release: 150, Inst: done,
			Policy: feedback.NewAControl(0.2), Sched: sched.BGreedy(),
		})
	}
	check := func(eng *Engine, when string) {
		t.Helper()
		var want Tally
		for _, st := range eng.Statuses() {
			switch st.State {
			case JobPending:
				want.Pending++
			case JobRunning:
				want.Running++
			case JobDone:
				want.Done++
				want.ResponseSum += st.Response
			}
		}
		res := eng.Result()
		want.Makespan, want.TotalWaste = res.Makespan, res.TotalWaste
		if got := eng.Tally(); got != want {
			t.Fatalf("%s: tally %+v, statuses give %+v", when, got, want)
		}
	}
	eng, err := NewEngine(snapCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs() {
		if _, err := eng.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	check(eng, "before the first step")
	var blob []byte
	var cut Tally
	for step := 0; !eng.Done(); step++ {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		check(eng, fmt.Sprintf("step %d", step))
		if step == 5 {
			if blob, err = eng.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
			cut = eng.Tally()
		}
	}
	restarts := 0
	for _, j := range eng.Result().Jobs {
		restarts += j.Restarts
	}
	if restarts == 0 || cut.Pending == 0 || cut.Running == 0 || cut.Done == 0 {
		t.Fatalf("run too tame: %d restarts, tally at the cut %+v", restarts, cut)
	}
	restored, err := RestoreEngine(snapCfg(plan), blob, specs())
	if err != nil {
		t.Fatal(err)
	}
	check(restored, "after restore")
	for step := 0; !restored.Done(); step++ {
		if _, err := restored.Step(); err != nil {
			t.Fatal(err)
		}
		check(restored, fmt.Sprintf("restored step %d", step))
	}
	if got, want := restored.Tally(), eng.Tally(); got != want {
		t.Fatalf("restored run ends at %+v, the original at %+v", got, want)
	}
}
