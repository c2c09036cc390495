package server

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"abg/internal/job"
)

// TestCompletedJobsReleaseProfiles: a daemon keeps no completed job's
// profile reachable. 1000 batch jobs go one at a time through a journaled
// virtual-clock daemon whose quantum clock the test turns itself (New
// without Start; StepExternal is the driver's step), so each job's profile can
// be given a finalizer while the job waits in the admission queue. Every
// finalizer must run after garbage collection, with the daemon still up
// and reporting every job done.
func TestCompletedJobsReleaseProfiles(t *testing.T) {
	s, err := New(Config{
		Addr: "127.0.0.1:0", P: 64, L: 200, Clock: ClockVirtual,
		JournalDir: t.TempDir(), Fsync: "never", Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	const jobs = 1000
	var freed atomic.Int64
	for id := range jobs {
		req := JobRequest{Kind: "batch", CL: 20, Shrink: 8, Seed: uint64(id), Key: fmt.Sprint(id)}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitLocal(req, ""); err != nil {
			t.Fatalf("submit %d: %v", id, err)
		}
		s.mu.Lock()
		if len(s.queue) != 1 || s.queue[0].id != id {
			s.mu.Unlock()
			t.Fatalf("job %d is not alone in the admission queue", id)
		}
		runtime.SetFinalizer(s.queue[0].profile, func(*job.Profile) { freed.Add(1) })
		s.mu.Unlock()
		for s.NeedsSteps() {
			s.StepExternal(false)
		}
		if st, ok := s.LookupJob(id); !ok || st.State != "done" {
			t.Fatalf("job %d is %q after the daemon ran out of work", id, st.State)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < jobs && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != jobs {
		t.Fatalf("%d of %d completed jobs' profiles were released", got, jobs)
	}
	if err := s.Fatal(); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.Completed != jobs {
		t.Fatalf("daemon reports %d of %d jobs completed", st.Completed, jobs)
	}
}
