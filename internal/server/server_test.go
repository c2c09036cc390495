package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// startServer boots a server on a random loopback port and returns it plus
// its base URL. The context is cancelled (triggering a drain) at test end.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		cancel()
		if err := s.Wait(); err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	return s, "http://" + s.Addr()
}

// postJobs submits a JobRequest and returns status code and decoded body.
func postJobs(t *testing.T, base string, req JobRequest) (int, SubmitResponse, ErrorDTO) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var ok SubmitResponse
	var bad ErrorDTO
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("bad ack body %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("bad error body %q: %v", raw, err)
	}
	return resp.StatusCode, ok, bad
}

// getJSON decodes a GET endpoint into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitCompleted polls /api/v1/state until n jobs completed or the deadline
// passes.
func waitCompleted(t *testing.T, base string, n int) StateDTO {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var st StateDTO
	for time.Now().Before(deadline) {
		getJSON(t, base+"/api/v1/state", &st)
		if st.Completed >= n {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d completions; state %+v", n, st)
	return st
}

func TestSubmitRunsToCompletion(t *testing.T) {
	_, base := startServer(t, Config{
		P: 16, L: 50, Clock: ClockVirtual, Scheduler: "abg",
	})

	code, ack, _ := postJobs(t, base, JobRequest{
		Name: "lifecycle", Kind: "fullPar", Width: 8, Quanta: 3, Count: 3,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if len(ack.IDs) != 3 || ack.IDs[0] != 0 || ack.IDs[2] != 2 {
		t.Fatalf("ids = %v, want [0 1 2]", ack.IDs)
	}

	st := waitCompleted(t, base, 3)
	if st.Submitted != 3 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("state after completion: %+v", st)
	}
	if st.Scheduler == "" || st.Version == "" || st.Clock != "virtual" {
		t.Fatalf("state metadata missing: %+v", st)
	}

	var dto JobStatusDTO
	if code := getJSON(t, base+"/api/v1/jobs/1", &dto); code != http.StatusOK {
		t.Fatalf("GET job 1 = %d", code)
	}
	if dto.State != "done" || dto.Name != "lifecycle-1" {
		t.Fatalf("job 1 = %+v", dto)
	}
	if dto.Work <= 0 || dto.Response <= 0 || dto.NumQuanta <= 0 {
		t.Fatalf("job 1 missing metrics: %+v", dto)
	}
	// Lifecycle history must bracket the run: admitted first, completed last.
	if len(dto.History) < 2 ||
		dto.History[0].Event != "job_admitted" ||
		dto.History[len(dto.History)-1].Event != "job_completed" {
		t.Fatalf("job 1 history = %+v", dto.History)
	}

	var all []JobStatusDTO
	getJSON(t, base+"/api/v1/jobs", &all)
	if len(all) != 3 {
		t.Fatalf("job list has %d entries, want 3", len(all))
	}

	if code := getJSON(t, base+"/api/v1/jobs/99", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var ver map[string]string
	getJSON(t, base+"/api/v1/version", &ver)
	if ver["version"] == "" || ver["scheduler"] == "" {
		t.Fatalf("version = %v", ver)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, base := startServer(t, Config{P: 8, L: 50, Clock: ClockVirtual})
	code, _, bad := postJobs(t, base, JobRequest{Kind: "nope"})
	if code != http.StatusBadRequest || !strings.Contains(bad.Error, "unknown kind") {
		t.Fatalf("bad kind: status %d, err %q", code, bad.Error)
	}
	code, _, _ = postJobs(t, base, JobRequest{Kind: "fullpar", Width: 1 << 20})
	if code != http.StatusBadRequest {
		t.Fatalf("oversized width: status %d, want 400", code)
	}
	code, _, bad = postJobs(t, base, JobRequest{Kind: "serial", Name: strings.Repeat("n", maxNameLen+1)})
	if code != http.StatusBadRequest || !strings.Contains(bad.Error, "name longer than") {
		t.Fatalf("oversized name: status %d, err %q", code, bad.Error)
	}
	if code, _, _ = postJobs(t, base, JobRequest{Kind: "serial", Name: strings.Repeat("n", maxNameLen)}); code != http.StatusAccepted {
		t.Fatalf("name at the limit: status %d, want 202", code)
	}
}

func TestBackpressure429(t *testing.T) {
	// A wall clock with an hour-long tick never reaches a boundary during
	// the test, so the admission queue only empties at drain.
	_, base := startServer(t, Config{
		P: 8, L: 50, Clock: ClockWall, Tick: time.Hour, QueueLimit: 4,
	})
	code, ack, _ := postJobs(t, base, JobRequest{Kind: "serial", Quanta: 1, Count: 4})
	if code != http.StatusAccepted || ack.Queued != 4 {
		t.Fatalf("fill: status %d ack %+v", code, ack)
	}
	code, _, bad := postJobs(t, base, JobRequest{Kind: "serial", Quanta: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d (%q), want 429", code, bad.Error)
	}
	// Queued jobs are visible with state "queued" before admission.
	var dto JobStatusDTO
	getJSON(t, base+"/api/v1/jobs/2", &dto)
	if dto.State != "queued" {
		t.Fatalf("job 2 state = %q, want queued", dto.State)
	}
	// Drain must still run the queued jobs to completion (t.Cleanup checks
	// Wait() == nil; completion is asserted via the drain handler).
	resp, err := http.Post(base+"/api/v1/drain?wait=1", "", nil)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	var dr map[string]bool
	json.NewDecoder(resp.Body).Decode(&dr)
	resp.Body.Close()
	if !dr["draining"] || !dr["done"] {
		t.Fatalf("drain response = %v", dr)
	}
	var st StateDTO
	getJSON(t, base+"/api/v1/state", &st)
	if st.Completed != 4 || st.Queued != 0 || !st.Draining {
		t.Fatalf("state after drain = %+v", st)
	}
}

func TestDrainClosesAdmission(t *testing.T) {
	s, base := startServer(t, Config{P: 8, L: 50, Clock: ClockVirtual})
	s.Drain()
	code, _, bad := postJobs(t, base, JobRequest{Kind: "serial"})
	if code != http.StatusServiceUnavailable || !strings.Contains(bad.Error, "draining") {
		t.Fatalf("submit while draining: status %d err %q", code, bad.Error)
	}
}

func TestSSEStreamsEvents(t *testing.T) {
	_, base := startServer(t, Config{P: 8, L: 50, Clock: ClockVirtual})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /api/v1/events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	// The handler opens with a reconnect hint and a comment line; once they
	// arrive the subscription is live and no submission events can be missed.
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "retry: ") {
		t.Fatalf("no SSE retry hint: %q (err %v)", sc.Text(), sc.Err())
	}
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("no SSE preamble: %q (err %v)", sc.Text(), sc.Err())
	}

	if code, _, _ := postJobs(t, base, JobRequest{Kind: "fullPar", Width: 4, Quanta: 2}); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	kinds := map[string]bool{}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev eventDTO
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		kinds[ev.Kind] = true
		if ev.Kind == "job_completed" {
			break
		}
	}
	for _, want := range []string{"job_admitted", "request", "allotment", "quantum_end", "job_completed"} {
		if !kinds[want] {
			t.Fatalf("SSE stream missing %q; saw %v", want, kinds)
		}
	}
}

func TestFaultSpecWiresCheckerAndRestarts(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 50, Clock: ClockVirtual,
		FaultSpec: "restartat=1,maxrestarts=1,seed=7",
	})
	if code, _, _ := postJobs(t, base, JobRequest{Kind: "fullPar", Width: 4, Quanta: 3}); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	waitCompleted(t, base, 1)
	var dto JobStatusDTO
	getJSON(t, base+"/api/v1/jobs/0", &dto)
	if dto.Restarts != 1 || dto.LostWork <= 0 {
		t.Fatalf("restart not injected: %+v", dto)
	}
	var found bool
	for _, h := range dto.History {
		if h.Event == "job_restarted" {
			found = true
		}
	}
	if !found {
		t.Fatalf("history missing job_restarted: %+v", dto.History)
	}
	var st StateDTO
	getJSON(t, base+"/api/v1/state", &st)
	if st.Fault == "" {
		t.Fatalf("state does not report fault plan: %+v", st)
	}
	if st.Error != "" {
		t.Fatalf("invariant checker tripped: %s", st.Error)
	}
}

func TestWallClockAdvancesIdleTime(t *testing.T) {
	_, base := startServer(t, Config{
		P: 8, L: 100, Clock: ClockWall, Tick: time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	var st StateDTO
	for time.Now().Before(deadline) {
		getJSON(t, base+"/api/v1/state", &st)
		if st.Now >= 300 {
			return // idle boundaries are advancing simulated time
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("wall clock did not advance: %+v", st)
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want string // substring of the error, when pinned
	}{
		{cfg: Config{Scheduler: "lifo"}},
		{cfg: Config{Clock: "sundial"}},
		{cfg: Config{P: -1}},
		{cfg: Config{FaultSpec: "bogus=1"}},
		// A two-member group can never elect: a pair runs groupless and
		// promotes its standby by hand.
		{cfg: Config{JournalDir: t.TempDir(), Advertise: "http://a:1",
			Group: []string{"http://a:1", "http://b:2"}}, want: "POST /api/v1/promote"},
	} {
		_, err := New(tc.cfg)
		if err == nil {
			t.Fatalf("New(%+v) accepted invalid config", tc.cfg)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("New(%+v) = %v, want an error naming %q", tc.cfg, err, tc.want)
		}
	}
}

// TestLargestRequestsAllocatePerSegment pins that no request within the
// submission limits makes the daemon materialise a job level by level. At
// abgd's default L = 1000 the largest fullPar, serial and adversarial
// requests (MaxCount jobs of maxQuanta quanta at width maxWidth) are
// normalized and built job by job, and the bytes allocated per job stay
// under a small constant per segment: two segments for fullPar and serial,
// two per quantum for adversarial. Built level by level, one fullPar job
// of a million levels takes over 16 MiB.
func TestLargestRequestsAllocatePerSegment(t *testing.T) {
	const (
		l          = 1000 // abgd's -L default
		perSegment = 256  // bytes allocated per segment, at most
		perJob     = 1 << 20
	)
	for _, tc := range []struct {
		kind     string
		segments int
	}{{"fullPar", 2}, {"serial", 2}, {"adversarial", 2 * maxQuanta}} {
		req := JobRequest{Kind: tc.kind, Width: maxWidth, Quanta: maxQuanta, Count: MaxCount}
		if err := req.Normalize(); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		var built uint64 // bytes allocated building the request's jobs
		for i := 0; i < req.Count; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p := req.BuildProfile(i, l)
			runtime.ReadMemStats(&m1)
			// Stop at the first job that is far too big, before a
			// level-by-level build of the whole request exhausts memory.
			if got := m1.TotalAlloc - m0.TotalAlloc; got > perJob {
				t.Fatalf("%s job %d allocated %d bytes", tc.kind, i, got)
			}
			built += m1.TotalAlloc - m0.TotalAlloc
			if n := len(p.Segments()); n != tc.segments {
				t.Fatalf("%s job %d: %d segments, want %d", tc.kind, i, n, tc.segments)
			}
		}
		got := built / uint64(req.Count)
		t.Logf("%s: %d bytes per job, %d segments", tc.kind, got, tc.segments)
		if got > perSegment*uint64(tc.segments) {
			t.Errorf("%s: %d bytes per job, want at most %d per segment × %d segments",
				tc.kind, got, perSegment, tc.segments)
		}
	}
}

func TestJobNameAndProfileFamilies(t *testing.T) {
	l := 50
	for _, kind := range []string{"fullPar", "serial", "batch", "adversarial"} {
		req := JobRequest{Kind: kind, Width: 8, Quanta: 4, Seed: 3}
		if err := req.Normalize(); err != nil {
			t.Fatalf("normalize(%s): %v", kind, err)
		}
		p := req.BuildProfile(0, l)
		if p.Work() <= 0 || p.CriticalPathLen() <= 0 {
			t.Fatalf("%s: empty profile", kind)
		}
		if kind == "serial" && p.MaxWidth() != 1 {
			t.Fatalf("serial profile has width %d", p.MaxWidth())
		}
		if kind == "adversarial" && p.MaxWidth() != 8 {
			t.Fatalf("adversarial profile has width %d", p.MaxWidth())
		}
	}
	// Batch profiles must replay identically for the same seed — the
	// property the e2e smoke's makespan comparison rests on.
	req := JobRequest{Kind: "batch", Seed: 9}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	a, b := req.BuildProfile(2, l), req.BuildProfile(2, l)
	if a.Work() != b.Work() || a.CriticalPathLen() != b.CriticalPathLen() {
		t.Fatal("batch profile generation is not deterministic")
	}
	if fmt.Sprintf("%v", a.Widths()) != fmt.Sprintf("%v", b.Widths()) {
		t.Fatal("batch profile widths differ across replays")
	}
}
