package sim

import (
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/fault"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
	"abg/internal/workload"
	"abg/internal/xrand"
)

// fullFaultSpec is the disturbance stack the equivalence suites use: lossy
// control channel, measurement noise, capacity churn, seeded restarts.
const fullFaultSpec = "drop=0.15,delay=2:0.1,dup=0.1,noise=0.3,restart=0.1,restartat=2,maxrestarts=2,cap=churn:0.5:4,seed=11"

// equivSpecs builds a deterministic mixed job set: random fork-join jobs
// under alternating ABG/A-Greedy policies with staggered releases, including
// a long idle gap that forces the engine's fast-forward path. Each call
// constructs fresh instances and policies, so two calls drive two
// independent but identical runs. A non-zero plan wraps each policy in the
// lossy control channel and arms a seeded restart schedule, exactly as
// cmd/abgsim does.
func equivSpecs(t *testing.T, plan fault.Plan, bus *obs.Bus) []JobSpec {
	t.Helper()
	releases := []int64{0, 150, 150, 400, 9000} // 9000 ≫ the rest: idle gap
	specs := make([]JobSpec, len(releases))
	for i := range specs {
		profile := workload.GenJob(xrand.New(uint64(1000+i)),
			workload.ScaledJobParams(4+3*i, 50, 4))
		var pol feedback.Policy
		var sc sched.Scheduler
		if i%2 == 0 {
			pol, sc = feedback.NewAControl(0.2), sched.BGreedy()
		} else {
			pol, sc = feedback.NewAGreedy(2, 0.8), sched.Greedy()
		}
		specs[i] = JobSpec{
			Name:    "j",
			Release: releases[i],
			Inst:    job.NewRun(profile),
			Policy:  plan.Policy(pol, i, bus),
			Sched:   sc,
		}
		if hook := plan.RestartHook(i); hook != nil {
			p := profile
			specs[i].Restart = &RestartPlan{
				At:  hook,
				New: func() job.Instance { return job.NewRun(p) },
				Max: plan.MaxRestarts,
			}
		}
	}
	return specs
}

// runBoth drives the same job set through RunMulti and through a
// hand-stepped Engine and returns both results and event streams.
func runBoth(t *testing.T, plan fault.Plan) (a, b MultiResult, ea, eb []obs.Event) {
	t.Helper()
	cfg := MultiConfig{P: 16, L: 50, Allocator: alloc.DynamicEquiPartition{}, KeepTrace: true}
	if plan.Capacity != nil {
		cfg.Capacity = plan.Capacity
	}

	busA := obs.NewBus()
	recA := &obs.Recorder{}
	busA.Subscribe(recA)
	cfgA := cfg
	cfgA.Obs = busA
	resA, err := RunMulti(equivSpecs(t, plan, busA), cfgA)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}

	busB := obs.NewBus()
	recB := &obs.Recorder{}
	busB.Subscribe(recB)
	cfgB := cfg
	cfgB.Obs = busB
	eng, err := NewEngine(cfgB)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for i, spec := range equivSpecs(t, plan, busB) {
		id, err := eng.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
		if id != i {
			t.Fatalf("Submit(%d) assigned id %d", i, id)
		}
	}
	steps := 0
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if steps++; steps > DefaultMaxQuanta {
			t.Fatal("engine did not terminate")
		}
	}
	return resA, eng.Result(), recA.Events(), recB.Events()
}

// TestEngineMatchesRunMulti is the equivalence regression: a hand-stepped
// Engine must reproduce RunMulti's event stream and MultiResult
// bit-identically on the same specs and seed.
func TestEngineMatchesRunMulti(t *testing.T) {
	resA, resB, evA, evB := runBoth(t, fault.Plan{})
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("event streams diverge: RunMulti %d events, Engine %d events",
			len(evA), len(evB))
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("results diverge:\nRunMulti: %+v\nEngine:   %+v", resA, resB)
	}
	if resA.Makespan == 0 || resA.QuantaElapsed == 0 {
		t.Fatalf("degenerate run: %+v", resA)
	}
}

// TestEngineMatchesRunMultiUnderFaults repeats the equivalence check with
// the full disturbance stack armed: lossy control channel, measurement
// noise, capacity churn, and seeded RestartPlans.
func TestEngineMatchesRunMultiUnderFaults(t *testing.T) {
	plan, err := fault.ParseSpec(
		"drop=0.15,delay=2:0.1,dup=0.1,noise=0.3,restart=0.1,restartat=2,maxrestarts=2,cap=churn:0.5:4,seed=11", 16)
	if err != nil {
		t.Fatal(err)
	}
	resA, resB, evA, evB := runBoth(t, plan)
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("faulted event streams diverge: RunMulti %d events, Engine %d events",
			len(evA), len(evB))
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatalf("faulted results diverge:\nRunMulti: %+v\nEngine:   %+v", resA, resB)
	}
	restarts := 0
	for _, j := range resA.Jobs {
		restarts += j.Restarts
	}
	if restarts == 0 {
		t.Fatal("fault plan injected no restarts; equivalence check lost its teeth")
	}
}

// engCfg is the small machine used by the edge-case tests.
func engCfg() MultiConfig {
	return MultiConfig{P: 8, L: 100, Allocator: alloc.DynamicEquiPartition{}, KeepTrace: true}
}

// constSpec builds a constant-parallelism job spec under A-Control.
func constSpec(name string, width, levels int, release int64) JobSpec {
	return JobSpec{
		Name:    name,
		Release: release,
		Inst:    job.NewRun(job.Constant(width, levels)),
		Policy:  feedback.NewAControl(0.2),
		Sched:   sched.BGreedy(),
	}
}

// TestEngineMidRunSubmission: a job submitted mid-quantum becomes
// schedulable at the next quantum boundary, not mid-quantum and not at its
// raw release step.
func TestEngineMidRunSubmission(t *testing.T) {
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	bus.Subscribe(rec)
	cfg := engCfg()
	cfg.Obs = bus
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(constSpec("a", 4, 1000, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil { // boundary 0 → now = 100
		t.Fatal(err)
	}
	// Arrives at step 150, in the middle of quantum [100, 200).
	id, err := eng.Submit(constSpec("b", 2, 300, 150))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil { // boundary 1: b not yet released
		t.Fatal(err)
	}
	if st, _ := eng.JobStatus(id); st.State != JobPending {
		t.Fatalf("job b at boundary 1: state %v, want pending", st.State)
	}
	info, err := eng.Step() // boundary 2, time 200: b admitted
	if err != nil {
		t.Fatal(err)
	}
	if info.Active != 2 {
		t.Fatalf("boundary 2 active = %d, want 2", info.Active)
	}
	st, _ := eng.JobStatus(id)
	if st.State != JobRunning || st.NumQuanta != 1 {
		t.Fatalf("job b at boundary 2: %+v, want running with 1 quantum", st)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvJobAdmitted && e.Job == id {
			if e.Time != 200 {
				t.Fatalf("job b admitted at step %d, want boundary 200", e.Time)
			}
			return
		}
	}
	t.Fatal("no admission event for job b")
}

// TestEngineSubmitAfterDrain: Drain stops admission but runs accepted work
// to completion.
func TestEngineSubmitAfterDrain(t *testing.T) {
	eng, err := NewEngine(engCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(constSpec("a", 2, 250, 0)); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
	if !eng.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	if _, err := eng.Submit(constSpec("late", 2, 100, 0)); err == nil {
		t.Fatal("Submit after Drain succeeded, want rejection")
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 || res.Jobs[0].Completion == 0 {
		t.Fatalf("drained run did not finish the accepted job: %+v", res)
	}
}

// TestEngineZeroWorkJob: a job with no executable work left completes in
// its arrival quantum instead of hanging the job set.
func TestEngineZeroWorkJob(t *testing.T) {
	// Drive an instance to completion before submitting it.
	done := job.NewRun(job.Constant(1, 1))
	sched.RunQuantum(done, sched.BGreedy(), 1, 10)
	if !done.Done() {
		t.Fatal("setup: instance not complete")
	}

	bus := obs.NewBus()
	rec := &obs.Recorder{}
	bus.Subscribe(rec)
	cfg := engCfg()
	cfg.Obs = bus
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(constSpec("real", 2, 300, 0)); err != nil {
		t.Fatal(err)
	}
	zid, err := eng.Submit(JobSpec{
		Name: "zero", Release: 150, Inst: done,
		Policy: feedback.NewAControl(0.2), Sched: sched.BGreedy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	z := res.Jobs[zid]
	// Released at 150 → admitted and completed at the next boundary, 200.
	if z.Completion != 200 || z.Response != 50 || z.NumQuanta != 0 {
		t.Fatalf("zero-work outcome: %+v, want completion 200, response 50, 0 quanta", z)
	}
	var admitted, completed bool
	for _, e := range rec.Events() {
		if e.Job != zid {
			continue
		}
		switch e.Kind {
		case obs.EvJobAdmitted:
			admitted = true
		case obs.EvJobCompleted:
			completed = true
			if !admitted {
				t.Fatal("zero-work job completed before admission event")
			}
			if e.Time != 200 {
				t.Fatalf("zero-work completion at %d, want 200", e.Time)
			}
		case obs.EvRequest, obs.EvAllotment, obs.EvQuantumEnd:
			t.Fatalf("zero-work job executed a quantum: %+v", e)
		}
	}
	if !admitted || !completed {
		t.Fatalf("zero-work lifecycle events missing: admitted=%v completed=%v", admitted, completed)
	}
}

// dipCap is a capacity model that depresses P(t) over a quantum window.
type dipCap struct{ p, low, from, until int }

func (c dipCap) At(q int) int {
	if q >= c.from && q < c.until {
		return c.low
	}
	return c.p
}
func (c dipCap) Name() string { return "test-dip" }

// TestEngineAdmissionUnderDepressedCapacity: a job admitted while capacity
// churn has P(t) depressed is granted at most P(t), the invariant checker
// holds over the whole run, and both jobs finish once capacity recovers.
func TestEngineAdmissionUnderDepressedCapacity(t *testing.T) {
	bus := obs.NewBus()
	rec := &obs.Recorder{}
	checker := fault.NewChecker(8, false)
	bus.Subscribe(rec)
	bus.Subscribe(checker)
	cfg := engCfg()
	cfg.Obs = bus
	cfg.Capacity = dipCap{p: 8, low: 2, from: 3, until: 6}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(constSpec("a", 6, 900, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // boundaries 0..2; quantum 4 runs depressed
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	bid, err := eng.Submit(constSpec("b", 6, 400, eng.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.JobStatus(bid)
	if st.State != JobRunning {
		t.Fatalf("job b state %v, want running while capacity depressed", st.State)
	}
	if st.Allotment > 2 {
		t.Fatalf("job b allotment %d exceeds depressed capacity 2", st.Allotment)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Completion == 0 {
			t.Fatalf("job %q never completed: %+v", j.Name, j)
		}
	}
	if err := checker.Err(); err != nil {
		t.Fatalf("invariant checker: %v", err)
	}
	sawDip := false
	for _, e := range rec.Events() {
		if e.Kind == obs.EvCapacity && e.P == 2 {
			sawDip = true
		}
	}
	if !sawDip {
		t.Fatal("capacity dip never took effect")
	}
}

// TestEngineIdleAndStatus: an empty engine idles (time advances, no quanta),
// and job statuses move pending → running → done.
func TestEngineIdleAndStatus(t *testing.T) {
	eng, err := NewEngine(engCfg())
	if err != nil {
		t.Fatal(err)
	}
	info, err := eng.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Idle || info.Executed || eng.Now() != 100 || eng.QuantaElapsed() != 0 {
		t.Fatalf("idle step: %+v, now=%d, quanta=%d", info, eng.Now(), eng.QuantaElapsed())
	}
	id, err := eng.Submit(constSpec("a", 2, 150, eng.Now()))
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := eng.JobStatus(id); !ok || st.State != JobPending && st.State != JobRunning {
		t.Fatalf("fresh submission status: %+v ok=%v", st, ok)
	}
	if _, err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.JobStatus(id)
	if st.State != JobRunning || st.Request <= 0 || st.Allotment < 1 || st.Parallelism <= 0 {
		t.Fatalf("running status incomplete: %+v", st)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st, _ = eng.JobStatus(id)
	if st.State != JobDone || st.Completion == 0 || st.Response != st.Completion-st.Release {
		t.Fatalf("done status incomplete: %+v", st)
	}
	if got := eng.Statuses(); len(got) != 1 || got[0].ID != id {
		t.Fatalf("Statuses() = %+v", got)
	}
	if _, ok := eng.JobStatus(99); ok {
		t.Fatal("JobStatus(99) reported ok for unknown id")
	}
}

// TestStatusesStableOrderAndReuse pins the two Statuses guarantees the
// /state handler leans on under load: ascending-id order on every call, and
// no per-call reallocation once the job count is stable.
func TestStatusesStableOrderAndReuse(t *testing.T) {
	eng, err := NewEngine(engCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Submit(constSpec("s", 1+i%4, 50+10*i, int64(50*i))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(e *Engine, sts []JobStatus) {
		t.Helper()
		if len(sts) != e.NumJobs() {
			t.Fatalf("Statuses len %d, want %d", len(sts), e.NumJobs())
		}
		for i, st := range sts {
			if st.ID != i {
				t.Fatalf("Statuses()[%d].ID = %d, want ascending ids", i, st.ID)
			}
		}
	}
	first := eng.Statuses()
	check(eng, first)
	backing := &first[0]
	for !eng.Done() {
		if _, err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		sts := eng.Statuses()
		check(eng, sts)
		if &sts[0] != backing {
			t.Fatal("Statuses reallocated its buffer with an unchanged job count")
		}
	}
	// Growth keeps the contract: new submissions appear in order.
	eng2, err := NewEngine(engCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Submit(constSpec("a", 2, 10, 0)); err != nil {
		t.Fatal(err)
	}
	check(eng2, eng2.Statuses())
	if _, err := eng2.Submit(constSpec("b", 2, 10, 0)); err != nil {
		t.Fatal(err)
	}
	check(eng2, eng2.Statuses())
}
