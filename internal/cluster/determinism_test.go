package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"abg/internal/server"
)

// N-shard replay determinism: the same seed and submission sequence must
// produce DeepEqual results, identical merged event streams, and identical
// per-shard journal bytes at every worker count — the number of goroutines
// stepping shards (GOMAXPROCS) is an execution detail, not semantics.

type clusterRun struct {
	jobs     []JobDTO
	frames   []sseFrame
	journals [][]byte
	shards   []ShardDTO
	state    StateDTO
}

// runShardedCluster drives a fixed deterministic workload through an N-shard
// cluster and captures everything the determinism contract covers.
func runShardedCluster(t *testing.T, dir string, shards int) clusterRun {
	t.Helper()
	c, err := New(Config{
		Addr:   "127.0.0.1:0",
		Shards: shards,
		Shard:  shardConfig(dir, ""),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + c.Addr()
	framesCh := collectSSE(t, base)

	reqs := []server.JobRequest{
		{Kind: "batch", Count: 6, Seed: 7, CL: 15},
		{Kind: "fullpar", Name: "wide", Width: 12, Quanta: 3},
		{Kind: "serial", Name: "deep", Quanta: 6},
		{Kind: "serial", Name: "pinned", Quanta: 2, Key: "det-key"},
		{Kind: "adversarial", Name: "adv", Width: 8, Quanta: 3, Shrink: 2},
		{Kind: "batch", Count: 4, Seed: 21, CL: 10},
	}
	var keyed SubmitResponse
	for i, req := range reqs {
		var ack SubmitResponse
		if code := postJSON(t, base+"/api/v1/jobs", req, &ack); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if req.Key != "" {
			keyed = ack
		}
	}
	// Duplicate retries at N>1 must echo the original *global* ids every
	// time — the stored per-shard promise holds local ids, and remapping it
	// in place instead of a copy would drift the ids once per retry.
	for attempt := 0; attempt < 2; attempt++ {
		var dup SubmitResponse
		if code := postJSON(t, base+"/api/v1/jobs", reqs[3], &dup); code != http.StatusOK {
			t.Fatalf("duplicate retry %d: status %d, want 200", attempt, code)
		}
		if dup.State != "duplicate" || !reflect.DeepEqual(dup.IDs, keyed.IDs) || dup.Shard != keyed.Shard {
			t.Fatalf("duplicate retry %d: got state %q ids %v shard %d, want %q %v %d",
				attempt, dup.State, dup.IDs, dup.Shard, "duplicate", keyed.IDs, keyed.Shard)
		}
	}
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}

	var run clusterRun
	getJSON(t, base+"/api/v1/jobs", &run.jobs)
	getJSON(t, base+"/api/v1/shards", &run.shards)
	getJSON(t, base+"/api/v1/state", &run.state)
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	run.frames = <-framesCh
	for k := range c.shards {
		run.journals = append(run.journals, readJournal(t, c.shards[k].srv.Recovery().JournalPath))
	}
	return run
}

func TestShardedDeterminismAcrossWorkerCounts(t *testing.T) {
	const shards = 3
	// Serial shard stepping (under GOMAXPROCS 1 each round steps every
	// shard inline) vs the default of one goroutine per GOMAXPROCS: every
	// observable output must be identical.
	a := func() clusterRun {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return runShardedCluster(t, t.TempDir(), shards)
	}()
	b := runShardedCluster(t, t.TempDir(), shards)

	if a.state.SSEDropped != 0 || b.state.SSEDropped != 0 {
		t.Fatalf("dropped SSE events (%d, %d) — streams not comparable", a.state.SSEDropped, b.state.SSEDropped)
	}
	if !reflect.DeepEqual(a.jobs, b.jobs) {
		t.Errorf("job results diverge across worker counts")
	}
	if len(a.jobs) != 14 {
		t.Errorf("got %d jobs, want 14", len(a.jobs))
	}
	for i := 1; i < len(a.jobs); i++ {
		if a.jobs[i].ID <= a.jobs[i-1].ID {
			t.Errorf("job listing not in ascending global id order at %d: %d after %d",
				i, a.jobs[i].ID, a.jobs[i-1].ID)
		}
	}
	done := 0
	for _, j := range a.jobs {
		if j.State == "done" {
			done++
		}
	}
	if done != len(a.jobs) {
		t.Errorf("%d/%d jobs done after drain", done, len(a.jobs))
	}
	if !reflect.DeepEqual(a.frames, b.frames) {
		t.Errorf("merged SSE streams diverge: %d vs %d frames", len(a.frames), len(b.frames))
		for i := 0; i < len(a.frames) && i < len(b.frames); i++ {
			if a.frames[i] != b.frames[i] {
				t.Errorf("first divergent frame %d:\nA: %+v\nB: %+v", i, a.frames[i], b.frames[i])
				break
			}
		}
	}
	if len(a.frames) == 0 {
		t.Error("no merged SSE frames collected")
	}
	for k := 0; k < shards; k++ {
		if !bytes.Equal(a.journals[k], b.journals[k]) {
			t.Errorf("shard %d journal diverges: %d vs %d bytes (first diff %d)",
				k, len(a.journals[k]), len(b.journals[k]), firstDiff(a.journals[k], b.journals[k]))
		}
		if len(a.journals[k]) == 0 {
			t.Errorf("shard %d journal empty — routing sent it nothing?", k)
		}
	}
	if !reflect.DeepEqual(a.shards, b.shards) {
		t.Errorf("per-shard telemetry diverges:\nA: %+v\nB: %+v", a.shards, b.shards)
	}

	// The cluster allocator must conserve the machine: every recorded share
	// vector sums to ≤ P and each share is clamped by its shard's desire
	// (DEQ is conservative). Spot-check the final round's telemetry.
	totalShare := 0
	for _, sh := range a.shards {
		if sh.Share < 0 || sh.Share > a.state.P {
			t.Errorf("shard %d share %d outside [0, P=%d]", sh.Shard, sh.Share, a.state.P)
		}
		totalShare += sh.Share
	}
	if totalShare > a.state.P {
		t.Errorf("shares sum to %d > P=%d", totalShare, a.state.P)
	}
}

// TestShardedStateAggregation sanity-checks the merged /state and vector
// event ids on a multi-shard run.
func TestShardedStateAggregation(t *testing.T) {
	run := runShardedCluster(t, t.TempDir(), 3)
	if run.state.Cluster.Shards != 3 {
		t.Errorf("cluster.shards = %d, want 3", run.state.Cluster.Shards)
	}
	if run.state.Submitted != 14 || run.state.Completed != 14 {
		t.Errorf("submitted/completed = %d/%d, want 14/14", run.state.Submitted, run.state.Completed)
	}
	var routed int64
	for _, sh := range run.shards {
		routed += sh.Routed
	}
	if routed != 14 {
		t.Errorf("routed jobs sum to %d, want 14", routed)
	}
	// The front door's own traffic feeds the daemon's HTTP figures.
	if run.state.HTTPRequests == 0 {
		t.Error("state.httpRequests = 0 after the run's requests")
	}
	// Vector event ids: one component per shard, comma-separated.
	for _, f := range run.frames {
		var s0, s1, s2 uint64
		if n, err := fmt.Sscanf(f.ID, "%d,%d,%d", &s0, &s1, &s2); n != 3 || err != nil {
			t.Fatalf("event id %q is not a 3-component vector", f.ID)
		}
	}
	// Shard-tagged payloads: every merged event carries its origin.
	for _, f := range run.frames {
		if f.Event != "" {
			continue // resync frames are cluster-level
		}
		if !bytes.HasPrefix([]byte(f.Data), []byte(`{"shard":`)) {
			t.Fatalf("merged event payload %q lacks shard tag", f.Data)
		}
	}
}
