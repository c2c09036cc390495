package sim

import (
	"reflect"
	"testing"

	"abg/internal/alloc"
	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/obs"
	"abg/internal/sched"
)

// zeroWorkSpec is a job whose instance has no work left, released at
// release.
func zeroWorkSpec(release int64) JobSpec {
	inst := job.NewRun(job.Constant(1, 1))
	sched.RunQuantum(inst, sched.BGreedy(), 1, 10)
	return JobSpec{Name: "zero", Release: release, Inst: inst,
		Policy: feedback.NewAControl(0.2), Sched: sched.BGreedy()}
}

// TestSubmitDuringZeroWorkAdmission: when a boundary's only admission is a
// zero-work job and a subscriber submits a job as it completes, the clock
// moves on to the next boundary, and the run equals submitting that job
// right after the Step. (The engine once read the missing future release
// as -1 and jumped back to boundary 0.)
func TestSubmitDuringZeroWorkAdmission(t *testing.T) {
	cfg := MultiConfig{P: 8, L: 50, Allocator: alloc.DynamicEquiPartition{}}
	bus := obs.NewBus()
	cfg.Obs = bus
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var release int64 = -1
	bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		if ev.Kind == obs.EvJobCompleted && release < 0 {
			release = ev.Time
			if _, err := a.Submit(constSpec("late", 2, 120, release)); err != nil {
				t.Error(err)
			}
		}
	}))
	cfg.Obs = nil
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{a, b} {
		if _, err := e.Submit(zeroWorkSpec(100)); err != nil {
			t.Fatal(err)
		}
	}
	for !a.Done() || !b.Done() {
		before := release
		ia, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if a.Boundary() <= ia.Boundary {
			t.Fatalf("step at boundary %d moved the clock to boundary %d", ia.Boundary, a.Boundary())
		}
		if before < 0 && release >= 0 {
			if _, err := b.Submit(constSpec("late", 2, 120, release)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ra, rb := a.Result(), b.Result(); !reflect.DeepEqual(ra, rb) {
		t.Fatalf("subscriber submission ran differently:\n got %+v\nwant %+v", ra, rb)
	}
}

// TestAggregateRequestDuringStep: read from a subscriber at every event of
// a run, AggregateRequest equals the sum of the running jobs' integer
// requests in JobStatus, although mid-Step the live index lags admissions
// and completions.
func TestAggregateRequestDuringStep(t *testing.T) {
	cfg := MultiConfig{P: 12, L: 50, Allocator: alloc.DynamicEquiPartition{}}
	bus := obs.NewBus()
	cfg.Obs = bus
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checks := 0
	bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		want := 0
		for i := range eng.NumJobs() {
			if st, _ := eng.JobStatus(i); st.State == JobRunning {
				want += st.IntRequest
			}
		}
		if got := eng.AggregateRequest(); got != want {
			t.Fatalf("%v event: AggregateRequest = %d, running jobs request %d", ev.Kind, got, want)
		}
		checks++
	}))
	for i := range 20 {
		if _, err := eng.Submit(constSpec("j", 1+i%5, 40+17*(i%6), int64(35*(i%7)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Submit(zeroWorkSpec(60)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if checks == 0 {
		t.Fatal("no event was checked")
	}
}
