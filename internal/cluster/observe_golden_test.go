package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"abg/internal/server"
)

var update = flag.Bool("update", false, "rewrite testdata/observe-2shard.golden from the cluster")

// TestObserveGolden2Shard pins what the front door of a 2-shard cluster
// serves about a job's life: each trace as JSON and as Perfetto export, and
// each job's status with its lifecycle history, under global ids. The test
// turns the cluster's clock itself (New without Start, round), so every
// byte is deterministic; the shards' fault plan restarts jobs.
// -update rewrites testdata/observe-2shard.golden.
func TestObserveGolden2Shard(t *testing.T) {
	c, err := New(Config{Shards: 2, Shard: server.Config{
		P: 16, L: 50, Clock: server.ClockVirtual, Seed: 3,
		FaultSpec: "restart=0.5,restartat=1,maxrestarts=2,drop=0.2,seed=5",
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := c.mux()
	var out bytes.Buffer
	var traces []string
	var jobs []int
	submit := func(trace string, req server.JobRequest) {
		t.Helper()
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		ack, _, err := c.submit(req, trace)
		if err != nil {
			t.Fatalf("submit %s: %v", trace, err)
		}
		traces = append(traces, trace)
		jobs = append(jobs, ack.IDs...)
	}
	rounds := func(n int) {
		for ; n != 0 && c.anyNeedsSteps(); n-- {
			c.round(false)
		}
		if err := c.anyFatal(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(at string) {
		var paths []string
		for _, id := range traces {
			paths = append(paths, "/api/v1/traces/"+id, "/api/v1/traces/"+id+"?format=perfetto")
		}
		for _, id := range jobs {
			paths = append(paths, fmt.Sprintf("/api/v1/jobs/%d", id))
		}
		for _, p := range paths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
			fmt.Fprintf(&out, "== GET %s @ %s: %d\n%s", p, at, rec.Code, rec.Body.Bytes())
		}
	}

	submit("c-a", server.JobRequest{Kind: "batch", Seed: 31, Count: 3})
	submit("c-b", server.JobRequest{Kind: "fullPar", Width: 6, Quanta: 5, Count: 2})
	rounds(3)
	submit("c-c", server.JobRequest{Kind: "serial", Quanta: 3, Count: 2})
	read("round 3")
	rounds(-1)
	read("end")

	restarts := 0
	for _, sh := range c.shards {
		for _, st := range sh.srv.JobStatuses() {
			restarts += st.Restarts
		}
	}
	if restarts == 0 {
		t.Fatal("no job restarted; the golden shows no restart")
	}

	path := filepath.Join("testdata", "observe-2shard.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (-update writes it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := filepath.Join(t.TempDir(), "got")
		_ = os.WriteFile(got, out.Bytes(), 0o644)
		t.Fatalf("front door output differs from %s (got in %s; -update rewrites it)", path, got)
	}
}
