package cluster

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"abg/internal/server"
)

// The front door's merged event stream keeps the daemon's Last-Event-ID
// contract per component: a mid-stream vector resumes exactly, a vector
// with the wrong number of components is refused, and an evicted one — by
// either replay-ring cap — is told to resync before the replay.

// startStreamCluster boots a 2-shard virtual-clock cluster with the given
// replay-ring caps, runs a small workload on both shards (round-robin, so
// placement does not depend on timing) to completion, and leaves it idle
// and undrained.
func startStreamCluster(t *testing.T, ring, ringBytes int) (*Cluster, string) {
	t.Helper()
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Router: NewRoundRobin(2), Shard: server.Config{
		P: 16, L: 20, Clock: server.ClockVirtual,
		EventRing: ring, EventRingBytes: ringBytes,
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + c.Addr()
	for i := 0; i < 6; i++ {
		req := server.JobRequest{Kind: "batch", Seed: uint64(10 + i)}
		if code := postJSON(t, base+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st StateDTO
		getJSON(t, base+"/api/v1/state", &st)
		if st.Completed == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workload stuck: %d/6 done", st.Completed)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c, base
}

// openStream connects to the event stream, resuming after lastID when set.
func openStream(t *testing.T, base, lastID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/api/v1/events", nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if lastID != "" {
		req.Header.Set("Last-Event-ID", lastID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("events connect: %v", err)
	}
	return resp
}

// drainCluster drains the cluster over HTTP and waits for it.
func drainCluster(t *testing.T, c *Cluster, base string) {
	t.Helper()
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestClusterEventStreamResume(t *testing.T) {
	c, base := startStreamCluster(t, 0, 0)
	var st StateDTO
	getJSON(t, base+"/api/v1/state", &st)
	resp := openStream(t, base, "")
	all := scanFrames(resp.Body, int(st.LastEventID))
	resp.Body.Close()
	if len(all) != int(st.LastEventID) || all[len(all)-1].ID != st.Cluster.EventID {
		t.Fatalf("full replay: %d frames, want %d ending at %q", len(all), st.LastEventID, st.Cluster.EventID)
	}

	// A mid-stream vector replays exactly the later frames, in merged order.
	mid := len(all) / 2
	resp = openStream(t, base, all[mid].ID)
	got := scanFrames(resp.Body, len(all)-mid-1)
	resp.Body.Close()
	if !reflect.DeepEqual(got, all[mid+1:]) {
		t.Fatalf("resume after %q: got %d frames, want the %d later ones (first got %+v)",
			all[mid].ID, len(got), len(all)-mid-1, got[:min(1, len(got))])
	}

	for _, bad := range []string{"3", "1,2,3", "1,x", ","} {
		resp := openStream(t, base, bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Event-ID %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	drainCluster(t, c, base)
}

func TestClusterEventStreamResyncAfterEviction(t *testing.T) {
	for _, tc := range []struct {
		name            string
		ring, ringBytes int
	}{
		{"entries", 8, 0},
		{"bytes", 0, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, base := startStreamCluster(t, tc.ring, tc.ringBytes)
			var st StateDTO
			getJSON(t, base+"/api/v1/state", &st)
			resp := openStream(t, base, "1,1")
			drainCluster(t, c, base) // closes the stream after the replay
			got := scanFrames(resp.Body, -1)
			resp.Body.Close()

			if len(got) < 2 || got[0].Event != "resync" {
				t.Fatalf("frames %+v, want a resync frame then the replay", got[:min(2, len(got))])
			}
			replay := got[1:]
			if tc.ring > 0 && len(replay) > tc.ring {
				t.Errorf("replayed %d frames from an %d-entry ring", len(replay), tc.ring)
			}
			// The resync id follows the daemon's rule per component: the
			// position just before that shard's first replayed frame, or the
			// head where the replay holds none of its frames.
			want := parseIDVector(t, st.Cluster.EventID)
			seen := make([]bool, len(want))
			for _, f := range replay {
				if f.Event != "" {
					t.Fatalf("unexpected %q frame inside the replay", f.Event)
				}
				var k int
				if _, err := fmt.Sscanf(f.Data, `{"shard":%d,`, &k); err != nil {
					t.Fatalf("replayed payload %q lacks a shard tag", f.Data)
				}
				if !seen[k] {
					seen[k] = true
					want[k] = parseIDVector(t, f.ID)[k] - 1
				}
			}
			if wantID := fmt.Sprintf("%d,%d", want[0], want[1]); got[0].ID != wantID {
				t.Errorf("resync id %q, want %q", got[0].ID, wantID)
			}
		})
	}
}

func parseIDVector(t *testing.T, id string) []uint64 {
	t.Helper()
	var out []uint64
	for _, p := range strings.Split(id, ",") {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			t.Fatalf("bad vector id %q", id)
		}
		out = append(out, v)
	}
	return out
}

// TestShardHubsHoldNoFrames: a cluster's clients read the front door's
// merged stream only, so after a run on a 2-shard cluster each shard's own
// hub has numbered its events but holds no frame, while the front door's
// stream still serves them.
func TestShardHubsHoldNoFrames(t *testing.T) {
	c, base := startStreamCluster(t, 0, 0)
	for k, sh := range c.shards {
		sh.srv.SampleMetrics()
		reg := sh.srv.MetricsRegistry()
		events := reg.Gauge("abgd_sse_ring_events").Value()
		bytes := reg.Gauge("abgd_sse_ring_bytes").Value()
		if sh.srv.SSESeq() == 0 {
			t.Errorf("shard %d numbered no events", k)
		}
		if events != 0 || bytes != 0 {
			t.Errorf("shard %d's hub holds %d frames (%d bytes), want none", k, events, bytes)
		}
	}
	resp := openStream(t, base, "")
	defer resp.Body.Close()
	if frames := scanFrames(resp.Body, 1); len(frames) != 1 {
		t.Fatalf("front door replayed %d frames, want its ring's first", len(frames))
	}
}
