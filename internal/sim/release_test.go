package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"abg/internal/alloc"
	"abg/internal/fault"
	"abg/internal/job"
	"abg/internal/obs"
)

// TestDoneJobsReleased: once a run ends, the engine holds none of its done
// jobs' instances or policies. Every instance (restarted attempts' ones
// included) and every policy carries a finalizer, and all of them must run
// after garbage collection while the engine is still alive and still
// reports every job's outcome.
func TestDoneJobsReleased(t *testing.T) {
	plan, err := fault.ParseSpec(fullFaultSpec, 16)
	if err != nil {
		t.Fatal(err)
	}
	var made, freed atomic.Int64
	track := func(obj any) {
		made.Add(1)
		runtime.SetFinalizer(obj, func(any) { freed.Add(1) })
	}
	eng, err := NewEngine(snapCfg(plan))
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 60
	for i := range jobs {
		sp := chainSpec(plan, i)
		sp.Release = int64(50 * (i % 7))
		track(sp.Inst)
		track(sp.Policy)
		if r := sp.Restart; r != nil {
			newInst := r.New
			r.New = func() job.Instance {
				inst := newInst()
				track(inst)
				return inst
			}
		}
		if _, err := eng.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	want, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	restarts := 0
	for _, j := range want.Jobs {
		restarts += j.Restarts
	}
	if restarts == 0 {
		t.Fatal("the run restarts no job")
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < made.Load() && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got, all := freed.Load(), made.Load(); got != all {
		t.Fatalf("%d of %d instances and policies of done jobs were released", got, all)
	}
	if got := eng.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the engine lost outcomes:\n got %+v\nwant %+v", got, want)
	}
}

// TestTimelinesBoundedByCompletedJobs: the engine keeps the timeline ring
// of every unfinished job and of the MaxDoneTimelines most recently
// completed ones, so the rings do not grow with the jobs it has served. An
// older done job's timeline is empty, with every sample it recorded (one
// per allotment event) counted as evicted.
func TestTimelinesBoundedByCompletedJobs(t *testing.T) {
	const ring = 8
	recorded := map[int]int{} // job → samples recorded
	bus := obs.NewBus()
	bus.Subscribe(obs.SubscriberFunc(func(ev obs.Event) {
		if ev.Kind == obs.EvAllotment {
			recorded[ev.Job]++
		}
	}))
	eng, err := NewEngine(MultiConfig{P: 4, L: 10, Allocator: alloc.DynamicEquiPartition{},
		Obs: bus, TimelineRing: ring})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 runs throughout and never completes; jobs 1.. run one at a
	// time beside it.
	if _, err := eng.Submit(constSpec("long", 1, 1<<30, 0)); err != nil {
		t.Fatal(err)
	}
	const total = MaxDoneTimelines + 1000
	for id := 1; id <= total; id++ {
		if _, err := eng.Submit(constSpec(fmt.Sprint(id), 2, 10+id%20, eng.Now())); err != nil {
			t.Fatal(err)
		}
		for st, _ := eng.JobStatus(id); st.State != JobDone; st, _ = eng.JobStatus(id) {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	kept := 0
	for id := 1; id <= total; id++ {
		if eng.states.at(id).timeline != nil {
			kept++
		}
	}
	if kept != MaxDoneTimelines {
		t.Fatalf("%d done jobs keep a timeline ring after %d completions, want %d", kept, total, MaxDoneTimelines)
	}
	check := func(id int, wantSamples bool) {
		t.Helper()
		samples, evicted, ok := eng.Timeline(id)
		n := recorded[id]
		if wantSamples {
			if !ok || len(samples) != min(n, ring) || evicted != n-len(samples) {
				t.Fatalf("job %d: %d samples, %d evicted, want %d and %d", id, len(samples), evicted, min(n, ring), n-min(n, ring))
			}
			return
		}
		if !ok || len(samples) != 0 || evicted != n || n == 0 {
			t.Fatalf("job %d: %d samples, %d evicted, want none and %d", id, len(samples), evicted, n)
		}
	}
	oldestKept := total - MaxDoneTimelines + 1
	check(total, true)
	check(oldestKept, true)
	check(oldestKept-1, false)
	check(1, false)
	check(0, true) // running
	if st, _ := eng.JobStatus(0); st.State != JobRunning {
		t.Fatalf("job 0 is %v, want running", st.State)
	}
}
