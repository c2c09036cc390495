package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// TestTracingAllocatesNothingPerQuantum: a traced job costs the quantum
// clock no allocation per quantum beyond what an untraced job costs. Each
// daemon runs one long job, traced or not, on a clock the test turns, and
// the quanta after the first 300 are measured (the job's timeline ring is
// full by then and allocates no more).
func TestTracingAllocatesNothingPerQuantum(t *testing.T) {
	perQuantum := func(trace string) float64 {
		s, err := New(Config{Addr: "127.0.0.1:0", P: 8, L: 50, Clock: ClockVirtual})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Kill()
		req := JobRequest{Kind: "adversarial", Width: 16, Quanta: 1000}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitLocal(req, trace); err != nil {
			t.Fatal(err)
		}
		for range 300 {
			s.StepExternal(false)
		}
		allocs := testing.AllocsPerRun(200, func() { s.StepExternal(false) })
		if !s.NeedsSteps() {
			t.Fatal("the job finished while measured")
		}
		return allocs
	}
	untraced, traced := perQuantum(""), perQuantum("alloc-trace")
	if traced != untraced {
		t.Fatalf("a traced job allocates %.2f times per quantum, an untraced one %.2f", traced, untraced)
	}
}

// TestObservationReadsWhileStepping: traces, timelines and job statuses
// with their history are read from several goroutines while the quantum
// clock steps the engine they are built from. Run under -race, it shows the
// reads take the daemon's lock. Every answer must be whole: a trace holds
// its submit spans and counts no more jobs done than it has, and a done
// job's history ends with its completion.
func TestObservationReadsWhileStepping(t *testing.T) {
	s, _ := startServer(t, Config{
		P: 8, L: 50, Clock: ClockVirtual,
		FaultSpec: "restart=0.3,restartat=1,maxrestarts=2,seed=5",
	})
	h := s.mux()
	const submissions = 16
	ids := make(chan string, submissions)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen []string
			for {
				select {
				case <-stop:
					return
				case id := <-ids:
					seen = append(seen, id)
				default:
				}
				for _, id := range seen {
					readObservation(t, h, id, r)
				}
			}
		}()
	}
	for i := range submissions {
		id := fmt.Sprintf("race-%d", i)
		req := JobRequest{Kind: "batch", Seed: uint64(i), Count: 2}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.SubmitLocal(req, id); err != nil {
			t.Fatal(err)
		}
		ids <- id
	}
	// The drain runs every job to completion while the readers read.
	s.Drain()
	<-s.drained
	close(stop)
	wg.Wait()
}

// readObservation reads one trace and its jobs' timelines and statuses.
func readObservation(t *testing.T, h http.Handler, trace string, reader int) {
	get := func(path string, out any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("reader %d: GET %s = %d %s", reader, path, rec.Code, rec.Body)
			return
		}
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Errorf("reader %d: GET %s: %v", reader, path, err)
			}
		}
	}
	var tr TraceDTO
	get("/api/v1/traces/"+trace, &tr)
	get("/api/v1/traces/"+trace+"?format=perfetto", nil)
	if len(tr.Spans) < len(tr.Jobs) || tr.Done > len(tr.Jobs) {
		t.Errorf("reader %d: trace %s has %d spans and %d of %d jobs done", reader, trace, len(tr.Spans), tr.Done, len(tr.Jobs))
	}
	for _, id := range tr.Jobs {
		var tl TimelineDTO
		get(fmt.Sprintf("/api/v1/jobs/%d/timeline", id), &tl)
		var st JobStatusDTO
		get(fmt.Sprintf("/api/v1/jobs/%d", id), &st)
		if n := len(st.History); st.State == "done" && (n == 0 || st.History[n-1].Event != "job_completed") {
			t.Errorf("reader %d: done job %d's history %+v does not end with its completion", reader, id, st.History)
		}
	}
}

// TestTraceWithoutTimeline: with the timeline ring disabled, a trace holds
// each job's lifecycle spans only (submit, queued, complete), and a job's
// history its admission and completion, even for a job that restarted.
func TestTraceWithoutTimeline(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", P: 8, L: 50, Clock: ClockVirtual, TimelineRing: -1,
		FaultSpec: "restart=1,restartat=1,maxrestarts=1,seed=5"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	req := JobRequest{Kind: "fullPar", Width: 4, Quanta: 3, Count: 2}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	ack, _, err := s.SubmitLocal(req, "no-ring")
	if err != nil {
		t.Fatal(err)
	}
	for s.NeedsSteps() {
		s.StepExternal(false)
	}
	tr, ok := s.TraceByID("no-ring")
	if !ok || tr.Done != 2 {
		t.Fatalf("trace = %+v, %v; want both jobs done", tr, ok)
	}
	var names []string
	for _, sp := range tr.Spans {
		names = append(names, sp.Name)
	}
	if want := []string{"submit", "submit", "queued", "queued", "complete", "complete"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for _, id := range ack.IDs {
		st, _ := s.LookupJob(id)
		if st.Restarts == 0 {
			t.Fatalf("job %d did not restart; the test shows nothing", id)
		}
		want := []HistoryEntry{{Time: st.Release, Event: "job_admitted"}, {Time: st.Completion, Event: "job_completed"}}
		if got := s.JobHistory(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d history %+v, want %+v", id, got, want)
		}
	}
}
