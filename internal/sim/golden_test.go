package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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

var update = flag.Bool("update", false, "rewrite testdata/engine-mix.golden from the engine")

// The engine-mix job set. P is smaller than the jobs released at 0, so
// some stall every quantum; the plan churns capacity, restarts jobs on a
// seed and perturbs the control channel.
const (
	mixP          = 6
	mixL          = 50
	mixFaultSpec  = "drop=0.1,delay=2:0.1,dup=0.1,noise=0.2,restart=0.15,restartat=3,maxrestarts=2,cap=churn:0.5:3,seed=5"
	mixInitial    = 11 // jobs submitted before the first Step
	mixZeroWork   = 7  // a job with no work left: admitted and completed at once
	mixFarFuture  = 10 // released long after the rest finish: a fast-forward
	mixSubmitCap  = 10 // jobs the subscriber submits, at most
	mixHandOver   = 9  // the Step after which the engine is snapshotted and restored
	mixDrainAfter = 24 // the Step after which the engine drains
)

// mixSpec builds job i of the engine-mix set afresh, its policy and channel
// events on bus. Every job is a pure function of i, so a restore rebuilds
// them all, those a subscriber submitted included.
func mixSpec(plan fault.Plan, i int, bus *obs.Bus) JobSpec {
	var release int64
	switch {
	case i == mixFarFuture:
		release = 40_000
	case i < mixInitial:
		release = int64(35 * (i % 4)) // 0, 35, 70, 105: some land mid-quantum
	}
	var profile *job.Profile
	if i%3 == 2 {
		profile = job.Constant(1+i%5, 30+11*(i%4))
	} else {
		profile = workload.GenJob(xrand.New(uint64(500+i)), workload.ScaledJobParams(3+2*(i%4), mixL, 6))
	}
	inst := job.NewRun(profile)
	if i == mixZeroWork {
		sched.RunQuantum(inst, sched.BGreedy(), profile.MaxWidth(), profile.CriticalPathLen())
	}
	var pol feedback.Policy = feedback.NewAControl(0.2)
	sc := sched.BGreedy()
	if i%2 == 1 {
		pol, sc = feedback.NewAGreedy(2, 0.8), sched.Greedy()
	}
	sp := JobSpec{Name: fmt.Sprintf("m%d", i), Release: release, Inst: inst,
		Policy: plan.Policy(pol, i, bus), Sched: sc}
	if hook := plan.RestartHook(i); hook != nil {
		sp.Restart = &RestartPlan{At: hook,
			New: func() job.Instance { return job.NewRun(profile) }, Max: plan.MaxRestarts}
	}
	return sp
}

// mixRun drives the engine-mix schedule and writes everything it observes
// as text: each event, each between-step action, one line per Step with
// its StepInfo, AggregateRequest and the SHA-256 of MarshalBinary, and at
// the end Result() and Statuses().
type mixRun struct {
	t         *testing.T
	plan      fault.Plan
	cfg       MultiConfig
	eng       *Engine
	out       bytes.Buffer
	submitted int // by the subscriber, rejected ones included

	// restores, when set, collects the engines restored from each Step's
	// snapshot and run on to the end (see checkRestore).
	restores *[]mixRestore

	// What the schedule exercised, so the golden cannot lose its teeth.
	kinds               map[obs.Kind]int
	stalls, rejected    int
	fastForwards, idles int
	submitsByKind       map[obs.Kind]int
}

// subscribe returns a fresh bus with one subscriber, which writes each
// event to the output and submits jobs: during admission (EvJobAdmitted),
// during the reduce loop (EvAllotment) and on completions, which happen in
// both.
func (m *mixRun) subscribe() *obs.Bus {
	bus := obs.NewBus()
	bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		fmt.Fprintf(&m.out, "event %v\n", ev)
		m.kinds[ev.Kind]++
		if ev.Kind == obs.EvAllotment && ev.Allotment == 0 {
			m.stalls++
		}
		trigger := (ev.Kind == obs.EvJobAdmitted && ev.Job%4 == 1) ||
			(ev.Kind == obs.EvAllotment && ev.Quantum == 2 && ev.Job%3 == 0) ||
			(ev.Kind == obs.EvJobCompleted && ev.Job%5 == 2)
		if !trigger || (m.submitted == mixSubmitCap && !m.eng.Draining()) {
			return
		}
		m.submitted++
		sp := mixSpec(m.plan, m.eng.NumJobs(), bus)
		sp.Release = ev.Time
		id, err := m.eng.Submit(sp)
		fmt.Fprintf(&m.out, "subscriber submit release=%d id=%d err=%v\n", sp.Release, id, err)
		if err != nil {
			m.rejected++
		} else {
			m.submitsByKind[ev.Kind]++
		}
	}))
	return bus
}

func (m *mixRun) step(k int) {
	info, err := m.eng.Step()
	if err != nil {
		m.t.Fatalf("step %d: %v", k, err)
	}
	if info.FastForwarded {
		m.fastForwards++
	}
	if info.Idle {
		m.idles++
	}
	blob, err := m.eng.MarshalBinary()
	if err != nil {
		m.t.Fatalf("step %d: %v", k, err)
	}
	fmt.Fprintf(&m.out, "step %d %+v aggregate=%d remaining=%d tally=%+v snapshot=%x\n",
		k, info, m.eng.AggregateRequest(), m.eng.Remaining(), m.eng.Tally(), sha256.Sum256(blob))
	if m.restores != nil {
		m.checkRestore(k, blob)
	}
}

// run drives the schedule from Step k until every job is done and returns
// the index of the next Step.
func (m *mixRun) run(k int) int {
	for ; !m.eng.Done(); k++ {
		if k > 10_000 {
			m.t.Fatal("engine-mix run did not finish")
		}
		m.step(k)
		m.after(k)
	}
	return k
}

// after applies the schedule's between-step action following Step k.
func (m *mixRun) after(k int) {
	switch k {
	case mixHandOver:
		m.handOver()
		sp := mixSpec(m.plan, m.eng.NumJobs(), m.eng.cfg.Obs)
		sp.Release = m.eng.Now() - 30
		id, err := m.eng.Submit(sp)
		fmt.Fprintf(&m.out, "submit release=%d id=%d err=%v\n", sp.Release, id, err)
	case mixDrainAfter:
		m.eng.Drain()
		fmt.Fprintf(&m.out, "drain\n")
	}
}

// mixRestore is the end of a run restored from the snapshot after Step k.
type mixRestore struct {
	k        int
	result   MultiResult
	statuses []JobStatus
}

// checkRestore restores blob, the snapshot taken after Step k, onto freshly
// built specs — zero specs for the jobs already done after every even
// Step, so both ways of restoring a done job are covered — and requires
// the restored engine to match the original on everything a service reads
// of it. The restored engine then runs through the rest of the schedule on
// its own subscriber; TestEngineMixGolden compares where it ends with the
// original run.
func (m *mixRun) checkRestore(k int, blob []byte) {
	r := &mixRun{t: m.t, plan: m.plan, cfg: m.cfg, submitted: m.submitted,
		kinds: map[obs.Kind]int{}, submitsByKind: map[obs.Kind]int{}}
	cfg := m.cfg
	cfg.Obs = r.subscribe()
	specs := make([]JobSpec, m.eng.NumJobs())
	for i := range specs {
		if st, _ := m.eng.JobStatus(i); st.State != JobDone || k%2 == 1 {
			specs[i] = mixSpec(m.plan, i, cfg.Obs)
		}
	}
	var err error
	if r.eng, err = RestoreEngine(cfg, blob, specs); err != nil {
		m.t.Fatalf("step %d: restore: %v", k, err)
	}
	requireSameEngine(m.t, fmt.Sprintf("restored after step %d", k), r.eng, m.eng)
	r.after(k)
	r.step(r.run(k + 1)) // and the idle Step the original ends with
	*m.restores = append(*m.restores, mixRestore{k: k, result: r.eng.Result(),
		statuses: slices.Clone(r.eng.Statuses())})
}

// handOver snapshots the engine and continues on an engine restored from
// the snapshot onto freshly built specs, as a recovering daemon does.
func (m *mixRun) handOver() {
	blob, err := m.eng.MarshalBinary()
	if err != nil {
		m.t.Fatal(err)
	}
	cfg := m.cfg
	cfg.Obs = m.subscribe()
	specs := make([]JobSpec, m.eng.NumJobs())
	for i := range specs {
		specs[i] = mixSpec(m.plan, i, cfg.Obs)
	}
	restored, err := RestoreEngine(cfg, blob, specs)
	if err != nil {
		m.t.Fatal(err)
	}
	fmt.Fprintf(&m.out, "hand-over jobs=%d snapshot=%x\n", len(specs), sha256.Sum256(blob))
	m.eng = restored
}

// TestEngineMixGolden runs the engine-mix schedule and requires the text in
// testdata/engine-mix.golden byte for byte. The golden was written before
// the engine walked a live-job index, so it pins the events, results and
// snapshot bytes of the engine that walked every job. The schedule covers
// future releases and a fast-forward jump, a zero-work job, stalls with
// more jobs than processors, capacity churn, seeded restarts and a lossy
// channel, a subscriber that submits during emissions, a submission between
// Steps with a release in the past, a snapshot hand-over mid-run, Drain and
// an idle Step. The engine restored from the snapshot after every Step
// must match the original and run on to the same end. -update rewrites the
// file.
func TestEngineMixGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are amd64 bytes; %s may fuse multiply-adds and round differently", runtime.GOARCH)
	}
	plan, err := fault.ParseSpec(mixFaultSpec, mixP)
	if err != nil {
		t.Fatal(err)
	}
	m := &mixRun{t: t, plan: plan,
		cfg:   MultiConfig{P: mixP, L: mixL, Allocator: alloc.DynamicEquiPartition{}, Capacity: plan.Capacity},
		kinds: map[obs.Kind]int{}, submitsByKind: map[obs.Kind]int{}}
	cfg := m.cfg
	cfg.Obs = m.subscribe()
	if m.eng, err = NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	for i := range mixInitial {
		if _, err := m.eng.Submit(mixSpec(plan, i, cfg.Obs)); err != nil {
			t.Fatal(err)
		}
	}
	var restores []mixRestore
	m.restores = &restores
	k := m.run(0)
	m.step(k) // idle: nothing left
	res := m.eng.Result()
	for _, r := range restores {
		if !reflect.DeepEqual(r.result, res) || !reflect.DeepEqual(r.statuses, m.eng.Statuses()) {
			t.Fatalf("the engine restored after step %d ran on to a different end:\n got %+v\nwant %+v",
				r.k, r.result, res)
		}
	}
	if len(restores) != k+1 {
		t.Fatalf("%d restores checked over %d steps", len(restores), k+1)
	}
	fmt.Fprintf(&m.out, "result makespan=%d waste=%d quanta=%d\n", res.Makespan, res.TotalWaste, res.QuantaElapsed)
	for _, j := range res.Jobs {
		fmt.Fprintf(&m.out, "outcome %+v\n", j)
	}
	for _, st := range m.eng.Statuses() {
		fmt.Fprintf(&m.out, "status %+v\n", st)
	}
	got := m.out.Bytes()
	t.Logf("%d steps, %d stalls, %d fast-forwards, %d restarts, %d capacity changes, submits %v, %d rejected",
		k, m.stalls, m.fastForwards, m.kinds[obs.EvJobRestarted], m.kinds[obs.EvCapacity], m.submitsByKind, m.rejected)
	if m.stalls == 0 || m.fastForwards == 0 || m.idles != 1 || m.kinds[obs.EvJobRestarted] == 0 ||
		m.kinds[obs.EvCapacity] < 2 || m.rejected == 0 || m.submitsByKind[obs.EvJobAdmitted] == 0 ||
		m.submitsByKind[obs.EvAllotment] == 0 || m.submitsByKind[obs.EvJobCompleted] == 0 {
		t.Errorf("the schedule no longer exercises every case it pins")
	}

	path := filepath.Join("testdata", "engine-mix.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s differs at line %d (-update rewrites it)\n--- got\n%s\n--- want\n%s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d (-update rewrites it)", path, len(gl), len(wl))
	}
}
