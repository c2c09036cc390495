package cluster

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"abg/internal/server"
)

// The metrics satellite: every sim_*/abgd_* family from every shard renders
// under a shard label with no name collisions, and the cluster-level
// abgd_cluster_* families sit alongside them.
func TestClusterMetricsShardLabels(t *testing.T) {
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Shard: shardConfig("", "")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + c.Addr()
	for i := 0; i < 4; i++ {
		var ack SubmitResponse
		if code := postJSON(t, base+"/api/v1/jobs",
			server.JobRequest{Kind: "batch", Name: "m", Seed: uint64(50 + i)}, &ack); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, want := range []string{
		`sim_quanta_total{shard="0"}`,
		`sim_quanta_total{shard="1"}`,
		"abgd_cluster_shards 2",
		`abgd_cluster_routed_jobs_total{shard="0"}`,
		`abgd_cluster_queue_depth{shard="1"}`,
		`abgd_cluster_shard_share{shard="0"}`,
		"abgd_http_requests_total{",
		"abgd_http_inflight_requests 1", // the front door's own gauge: this scrape
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Shard labels merge with a family's own labels instead of colliding.
	if !strings.Contains(body, `shard="0"`) || !strings.Contains(body, `shard="1"`) {
		t.Error("/metrics lacks per-shard series")
	}
	// Prometheus text format allows each # TYPE line exactly once per family.
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if seen[line] {
			t.Errorf("duplicate type declaration: %q", line)
		}
		seen[line] = true
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}
