package server

import (
	"reflect"
	"sync"
	"testing"

	"abg/internal/obs"
	"abg/internal/sim"
)

// lifecycleRecorder keeps, per job, the lifecycle transitions the event
// stream tells: admission, deprived↔satisfied flips, restarts, completion.
type lifecycleRecorder struct {
	mu    sync.Mutex
	byJob map[int][]HistoryEntry
}

func (r *lifecycleRecorder) OnEvent(e obs.Event) {
	switch e.Kind {
	case obs.EvJobAdmitted, obs.EvDeprived, obs.EvSatisfied,
		obs.EvJobRestarted, obs.EvJobCompleted:
	default:
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byJob[e.Job] = append(r.byJob[e.Job], HistoryEntry{
		Quantum: e.Quantum, Time: e.Time, Event: e.Kind.String(),
	})
}

func (r *lifecycleRecorder) get(job int) []HistoryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byJob[job]
}

// TestHistoryBoundedByCompletedJobs: a daemon builds a job's lifecycle
// history from the engine's timeline ring, so it keeps every unfinished
// job's history and those of the sim.MaxDoneTimelines most recently
// completed jobs, whose rings the engine keeps; what it holds does not grow
// with the jobs it has served. A kept history is the one the event stream
// tells. Job 0 runs throughout, competing with batches of one-quantum
// serial jobs that the test steps to completion one batch at a time.
func TestHistoryBoundedByCompletedJobs(t *testing.T) {
	bus := obs.NewBus()
	events := &lifecycleRecorder{byJob: make(map[int][]HistoryEntry)}
	bus.Subscribe(events)
	s, err := New(Config{Addr: "127.0.0.1:0", P: 64, L: 50, Clock: ClockVirtual, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	submit := func(req JobRequest) []int {
		t.Helper()
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		ack, _, err := s.SubmitLocal(req, "")
		if err != nil {
			t.Fatal(err)
		}
		return ack.IDs
	}
	submit(JobRequest{Kind: "fullPar", Width: 512, Quanta: 1024})
	const total = sim.MaxDoneTimelines + 1000
	for served := 0; served < total; {
		ids := submit(JobRequest{Kind: "serial", Quanta: 1, Count: min(60, total-served)})
		served += len(ids)
		for done := false; !done; {
			s.StepExternal(false)
			st, _ := s.LookupJob(ids[len(ids)-1])
			done = st.State == "done"
		}
	}
	if st, _ := s.LookupJob(0); st.State != "running" {
		t.Fatalf("job 0 is %q; the test needs it running", st.State)
	}

	kept := 0
	for id := 0; id <= total; id++ {
		if len(s.JobHistory(id)) > 0 {
			kept++
		}
	}
	if kept != sim.MaxDoneTimelines+1 {
		t.Fatalf("%d jobs have a history after %d completions, want %d (the running job plus the newest %d completed)",
			kept, total, sim.MaxDoneTimelines+1, sim.MaxDoneTimelines)
	}
	if got, want := s.JobHistory(total), events.get(total); !reflect.DeepEqual(got, want) {
		t.Fatalf("newest completed job's history = %+v, want %+v", got, want)
	}
	oldestKept := total - sim.MaxDoneTimelines + 1
	if got, want := s.JobHistory(oldestKept), events.get(oldestKept); !reflect.DeepEqual(got, want) {
		t.Fatalf("oldest retained job's history = %+v, want %+v", got, want)
	}
	if got := s.JobHistory(oldestKept - 1); len(got) != 0 {
		t.Fatalf("job %d outlived the bound: %+v", oldestKept-1, got)
	}
	got, want := s.JobHistory(0), events.get(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("running job's history = %+v, want %+v", got, want)
	}
	if len(want) < 2 {
		t.Fatalf("running job's history %+v has no flip; the test shows nothing", want)
	}
}
