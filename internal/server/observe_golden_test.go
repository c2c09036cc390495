package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"abg/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/observe/*.golden from the daemon")

// TestObserveGoldens pins what a daemon serves about a job's life: each
// trace as JSON and as Perfetto export (GET /api/v1/traces/{id}), and each
// job's status with its lifecycle history (GET /api/v1/jobs/{id}). The
// quantum clock is turned by the test (New without Start, StepExternal), so
// every byte is deterministic. Three runs: a clean one (a queued read,
// stalled quanta, an untraced and a duplicate submission), a faulted one
// whose jobs restart, and one whose job outlives its 256-sample timeline
// ring. -update rewrites testdata/observe/<case>.golden.
func TestObserveGoldens(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		run  func(g *observeRun)
		// shows reports whether a job of the run has what the case is
		// for: a stalled quantum, a restart, evicted timeline samples.
		shows func(st sim.JobStatus, samples []sim.QuantumSample, evicted int) bool
	}{
		{"clean", Config{P: 8, L: 50, Clock: ClockVirtual, Scheduler: "abg", Seed: 3}, func(g *observeRun) {
			g.submit("clean-a", JobRequest{Kind: "fullPar", Width: 4, Quanta: 3, Count: 2})
			g.read()
			g.steps(2)
			g.submit("clean-b", JobRequest{Kind: "batch", Seed: 11, Count: 2, Key: "b"})
			g.submit("", JobRequest{Kind: "serial", Quanta: 2})
			g.submit("clean-dup", JobRequest{Kind: "batch", Seed: 11, Count: 2, Key: "b"})
			g.submit("clean-c", JobRequest{Kind: "serial", Quanta: 2, Count: 10})
			g.steps(3)
			g.read()
			g.steps(-1)
			g.read()
		}, func(_ sim.JobStatus, samples []sim.QuantumSample, _ int) bool {
			return slices.ContainsFunc(samples, func(q sim.QuantumSample) bool { return q.Allotment == 0 })
		}},
		{"faulted", Config{P: 8, L: 50, Clock: ClockVirtual, Seed: 3,
			FaultSpec: "restart=0.5,restartat=1,maxrestarts=2,drop=0.2,cap=churn:0.5:4,seed=5"}, func(g *observeRun) {
			g.submit("fault-a", JobRequest{Kind: "batch", Seed: 21, Count: 3})
			g.submit("fault-b", JobRequest{Kind: "fullPar", Width: 6, Quanta: 6})
			g.steps(4)
			g.read()
			g.steps(-1)
			g.read()
		}, func(st sim.JobStatus, _ []sim.QuantumSample, _ int) bool { return st.Restarts > 0 }},
		{"long", Config{P: 8, L: 50, Clock: ClockVirtual, Seed: 3}, func(g *observeRun) {
			g.submit("long", JobRequest{Kind: "adversarial", Width: 16, Quanta: 300})
			g.submit("long-peer", JobRequest{Kind: "fullPar", Width: 8, Quanta: 40})
			g.steps(-1)
			g.read()
		}, func(_ sim.JobStatus, _ []sim.QuantumSample, evicted int) bool { return evicted > 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Addr = "127.0.0.1:0"
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Kill()
			g := &observeRun{t: t, s: s, h: s.mux()}
			tc.run(g)
			shown := false
			for id := range g.jobs {
				st, _ := s.eng.JobStatus(id)
				samples, evicted, _ := s.eng.Timeline(id)
				shown = shown || tc.shows(st, samples, evicted)
			}
			if !shown {
				t.Fatal("no job of the run shows what the case is for")
			}
			compareGolden(t, filepath.Join("testdata", "observe", tc.name+".golden"), g.out.Bytes())
		})
	}
}

// observeRun drives one golden run and collects what it reads.
type observeRun struct {
	t      *testing.T
	s      *Server
	h      http.Handler
	traces []string
	jobs   int
	out    bytes.Buffer
}

// submit runs SubmitLocal under trace id (none when empty).
func (g *observeRun) submit(trace string, req JobRequest) {
	g.t.Helper()
	if err := req.Normalize(); err != nil {
		g.t.Fatal(err)
	}
	resp, _, err := g.s.SubmitLocal(req, trace)
	if err != nil {
		g.t.Fatalf("submit %q: %v", trace, err)
	}
	if trace != "" && resp.State == "queued" {
		g.traces = append(g.traces, trace)
	}
	for _, id := range resp.IDs {
		g.jobs = max(g.jobs, id+1)
	}
}

// steps turns the clock n times, or until the daemon has no work when n < 0.
func (g *observeRun) steps(n int) {
	for ; n != 0 && g.s.NeedsSteps(); n-- {
		g.s.StepExternal(false)
	}
	if err := g.s.Fatal(); err != nil {
		g.t.Fatal(err)
	}
}

// read appends every trace, JSON and Perfetto, and every job's status.
func (g *observeRun) read() {
	var paths []string
	for _, id := range g.traces {
		paths = append(paths, "/api/v1/traces/"+id, "/api/v1/traces/"+id+"?format=perfetto")
	}
	for id := range g.jobs {
		paths = append(paths, fmt.Sprintf("/api/v1/jobs/%d", id))
	}
	readRoutes(&g.out, g.h, fmt.Sprintf("boundary %d", g.s.eng.Boundary()), paths)
}

// readRoutes appends each GET path's status and body to out.
func readRoutes(out *bytes.Buffer, h http.Handler, at string, paths []string) {
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		fmt.Fprintf(out, "== GET %s @ %s: %d\n%s", p, at, rec.Code, rec.Body.Bytes())
	}
}

// compareGolden checks got against the golden file at path, or rewrites
// the file under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (-update writes it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d (-update rewrites it)\n--- got\n%.2000s\n--- want\n%.2000s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d (-update rewrites it)", path, len(gl), len(wl))
}
