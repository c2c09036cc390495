package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"abg/internal/server"
)

// The golden satellite: a 1-shard cluster is bit-identical to a single
// daemon. Same submissions over HTTP must yield byte-identical journals,
// identical SSE streams (same ids, same payloads), and DeepEqual job
// results — with and without a fault plan armed.

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// collectSSE connects to the event stream and parses frames until the server
// closes it (end of drain). The returned channel yields the full frame list
// exactly once.
func collectSSE(t *testing.T, base string) <-chan []sseFrame {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/events")
	if err != nil {
		t.Fatalf("events connect: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events connect: status %d", resp.StatusCode)
	}
	out := make(chan []sseFrame, 1)
	go func() {
		defer resp.Body.Close()
		out <- scanFrames(resp.Body, -1)
	}()
	return out
}

// scanFrames parses server-sent events from r until it has n frames, or to
// EOF when n < 0.
func scanFrames(r io.Reader, n int) []sseFrame {
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for (n < 0 || len(frames) < n) && sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.Data = line[6:]
		}
	}
	return frames
}

// postJSON posts a body and decodes the JSON response into out.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// getJSON fetches a URL and decodes the JSON response into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// equivalenceWorkload submits the same deterministic job mix to a daemon
// front door: a mix of kinds, a keyed submission plus its duplicate retry,
// and a multi-job batch. Kept small so the full run emits well under the
// 1024-event SSE subscriber buffer (no drops — the streams must be exact).
func equivalenceWorkload(t *testing.T, base string) {
	t.Helper()
	reqs := []server.JobRequest{
		{Kind: "fullpar", Name: "fp", Width: 8, Quanta: 3},
		{Kind: "serial", Name: "ser", Quanta: 5},
		{Kind: "batch", Count: 3, Seed: 99, CL: 12},
		{Kind: "serial", Name: "keyed", Quanta: 2, Key: "alpha"},
		{Kind: "adversarial", Name: "adv", Width: 8, Quanta: 4, Shrink: 2},
	}
	var keyed server.SubmitResponse
	for i, req := range reqs {
		var ack server.SubmitResponse
		if code := postJSON(t, base+"/api/v1/jobs", req, &ack); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		if req.Key != "" {
			keyed = ack
		}
	}
	// Retry the keyed submission twice: deduplicated, acked 200 with the
	// original ids each time (a second retry catches any in-place id
	// remapping of the stored promise).
	for attempt := 0; attempt < 2; attempt++ {
		var dup server.SubmitResponse
		if code := postJSON(t, base+"/api/v1/jobs", reqs[3], &dup); code != http.StatusOK {
			t.Fatalf("duplicate retry %d: status %d, want 200", attempt, code)
		}
		if dup.State != "duplicate" {
			t.Fatalf("duplicate retry %d: state %q", attempt, dup.State)
		}
		if !reflect.DeepEqual(dup.IDs, keyed.IDs) {
			t.Fatalf("duplicate retry %d: ids %v, want original %v", attempt, dup.IDs, keyed.IDs)
		}
	}
}

// shardConfig is the common engine template for both sides: wall clock with
// an hour-long tick, so every quantum runs inside the drain fast-forward and
// the two runs see identical admission boundaries regardless of timing.
func shardConfig(dir, faultSpec string) server.Config {
	return server.Config{
		P: 16, L: 100,
		Scheduler: "abg", R: 0.2,
		Clock: server.ClockWall, Tick: time.Hour,
		QueueLimit: 256, Seed: 4242, FaultSpec: faultSpec,
		JournalDir: dir, SnapshotEvery: 4, Fsync: "always",
	}
}

// runSingle drives the workload through a plain daemon and returns its
// observable outputs.
func runSingle(t *testing.T, dir, faultSpec string) (jobs []server.JobStatusDTO, frames []sseFrame, journal []byte, state server.StateDTO) {
	t.Helper()
	cfg := shardConfig(dir, faultSpec)
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("single New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := srv.Start(ctx); err != nil {
		t.Fatalf("single Start: %v", err)
	}
	base := "http://" + srv.Addr()
	framesCh := collectSSE(t, base)
	equivalenceWorkload(t, base)
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("single drain: status %d", code)
	}
	getJSON(t, base+"/api/v1/jobs", &jobs)
	getJSON(t, base+"/api/v1/state", &state)
	releaseConns()
	if err := srv.Wait(); err != nil {
		t.Fatalf("single Wait: %v", err)
	}
	frames = <-framesCh
	journal = readJournal(t, srv.Recovery().JournalPath)
	return jobs, frames, journal, state
}

// runCluster drives the same workload through an N=1 cluster front door.
func runCluster(t *testing.T, dir, faultSpec string) (jobs []server.JobStatusDTO, frames []sseFrame, journal []byte, state server.StateDTO) {
	t.Helper()
	c, err := New(Config{
		Addr:   "127.0.0.1:0",
		Shards: 1,
		Shard:  shardConfig(dir, faultSpec),
	})
	if err != nil {
		t.Fatalf("cluster New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatalf("cluster Start: %v", err)
	}
	base := "http://" + c.Addr()
	framesCh := collectSSE(t, base)
	equivalenceWorkload(t, base)
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("cluster drain: status %d", code)
	}
	getJSON(t, base+"/api/v1/jobs", &jobs)
	getJSON(t, base+"/api/v1/state", &state)
	releaseConns()
	if err := c.Wait(); err != nil {
		t.Fatalf("cluster Wait: %v", err)
	}
	frames = <-framesCh
	journal = readJournal(t, c.shards[0].srv.Recovery().JournalPath)
	return jobs, frames, journal, state
}

// releaseConns closes the test client's pooled connections before a
// daemon shuts down. When a pooled connection frees up while the client's
// transport is dialling for a request, the request takes the pooled one and
// the new connection joins the pool without ever carrying a request;
// http.Server.Shutdown counts such a connection as active until it is 5 s
// old, so Wait stalled for 5 s. Connections that become idle after the call
// are closed too, until the client's next request.
func releaseConns() { http.DefaultClient.CloseIdleConnections() }

func readJournal(t *testing.T, path string) []byte {
	t.Helper()
	if path == "" {
		t.Fatal("empty journal path")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	return b
}

func TestOneShardEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault string
	}{
		{"clean", ""},
		{"faulted", "drop=0.2,cap=churn:0.5:8,seed=11"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			sJobs, sFrames, sJournal, sState := runSingle(t, filepath.Join(root, "single"), tc.fault)
			cJobs, cFrames, cJournal, cState := runCluster(t, filepath.Join(root, "cluster"), tc.fault)

			if !reflect.DeepEqual(sJobs, cJobs) {
				t.Errorf("job results diverge:\nsingle:  %+v\ncluster: %+v", sJobs, cJobs)
			}
			if len(sJobs) == 0 || sState.Completed == 0 {
				t.Fatalf("workload did not run: %d jobs, %d completed", len(sJobs), sState.Completed)
			}
			if !reflect.DeepEqual(sFrames, cFrames) {
				t.Errorf("SSE streams diverge: single %d frames, cluster %d frames", len(sFrames), len(cFrames))
				for i := 0; i < len(sFrames) && i < len(cFrames); i++ {
					if sFrames[i] != cFrames[i] {
						t.Errorf("first divergent frame %d:\nsingle:  %+v\ncluster: %+v", i, sFrames[i], cFrames[i])
						break
					}
				}
			}
			if len(sFrames) == 0 {
				t.Error("no SSE frames collected")
			}
			if !bytes.Equal(sJournal, cJournal) {
				t.Errorf("journals diverge: single %d bytes, cluster %d bytes (first diff at %d)",
					len(sJournal), len(cJournal), firstDiff(sJournal, cJournal))
			}
			if sState.SSEDropped != 0 || cState.SSEDropped != 0 {
				t.Errorf("dropped SSE events: single %d, cluster %d — streams not comparable",
					sState.SSEDropped, cState.SSEDropped)
			}
			for _, cmp := range []struct {
				what      string
				got, want any
			}{
				{"submitted", cState.Submitted, sState.Submitted},
				{"completed", cState.Completed, sState.Completed},
				{"makespan", cState.Makespan, sState.Makespan},
				{"totalWaste", cState.TotalWaste, sState.TotalWaste},
				{"meanResponse", cState.MeanResponse, sState.MeanResponse},
			} {
				if !reflect.DeepEqual(cmp.got, cmp.want) {
					t.Errorf("state.%s: cluster %v, single %v", cmp.what, cmp.got, cmp.want)
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestOneShardEquivalenceIDs checks the global-id mapping degenerates to the
// identity at one shard: the cluster ack carries the same dense ids and the
// per-job endpoints resolve them.
func TestOneShardEquivalenceIDs(t *testing.T) {
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 1, Shard: shardConfig("", "")})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + c.Addr()
	var ack SubmitResponse
	if code := postJSON(t, base+"/api/v1/jobs", server.JobRequest{Kind: "batch", Count: 3}, &ack); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(ack.IDs, want) {
		t.Fatalf("ids %v, want %v (identity mapping at one shard)", ack.IDs, want)
	}
	if ack.Shard != 0 {
		t.Fatalf("shard %d, want 0", ack.Shard)
	}
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	var job JobDTO
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/jobs/%d", base, 2), &job); code != http.StatusOK {
		t.Fatalf("job lookup: status %d", code)
	}
	if job.ID != 2 || job.State != "done" {
		t.Fatalf("job 2: id %d state %q", job.ID, job.State)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// TestUnknownJobMatchesDaemon: a 2-shard front door answers a lookup of a
// job it never admitted with the plain daemon's status and body.
func TestUnknownJobMatchesDaemon(t *testing.T) {
	shard := server.Config{P: 16, L: 20, Clock: server.ClockVirtual}
	cfg := shard
	cfg.Addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("daemon New: %v", err)
	}
	if err := srv.Start(ctx); err != nil {
		t.Fatalf("daemon Start: %v", err)
	}
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Shard: shard})
	if err != nil {
		t.Fatalf("cluster New: %v", err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatalf("cluster Start: %v", err)
	}
	get := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", url, err)
		}
		return resp.StatusCode, string(body)
	}
	daemon, front := "http://"+srv.Addr(), "http://"+c.Addr()
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/api/v1/jobs/999", http.StatusNotFound},
		{"/api/v1/jobs/999/timeline", http.StatusNotFound},
		{"/api/v1/jobs/-1", http.StatusNotFound},
		{"/api/v1/traces/nope", http.StatusNotFound},
		{"/api/v1/jobs/abc", http.StatusBadRequest},
		{"/api/v1/jobs/abc/timeline", http.StatusBadRequest},
	} {
		dCode, dBody := get(daemon + tc.path)
		cCode, cBody := get(front + tc.path)
		if dCode != tc.code || cCode != dCode || cBody != dBody {
			t.Errorf("GET %s: daemon %d %q, cluster %d %q; want both %d with one body", tc.path, dCode, dBody, cCode, cBody, tc.code)
		}
	}
	for _, base := range []string{daemon, front} {
		if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
			t.Fatalf("drain %s: status %d", base, code)
		}
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("daemon Wait: %v", err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("cluster Wait: %v", err)
	}
}

// TestTraceGlobalIDs: at two shards, a traced submission's trace carries the
// ack's global job ids, in its jobs and in its Perfetto export's tracks.
func TestTraceGlobalIDs(t *testing.T) {
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Shard: server.Config{P: 16, L: 20, Clock: server.ClockVirtual}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + c.Addr()
	client := server.NewClient(base)
	var acks []server.SubmitResponse
	for i := 0; i < 2; i++ {
		ack, err := client.Submit(ctx, server.JobRequest{Kind: "fullPar", Width: 4, Quanta: 2, Count: 3})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		acks = append(acks, ack)
	}
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	remapped := false
	for _, ack := range acks {
		tr, err := client.Trace(ctx, ack.TraceID)
		if err != nil {
			t.Fatalf("trace %s: %v", ack.TraceID, err)
		}
		if !reflect.DeepEqual(tr.Jobs, ack.IDs) {
			t.Errorf("trace %s jobs %v, want the ack's ids %v", ack.TraceID, tr.Jobs, ack.IDs)
		}
		remapped = remapped || !reflect.DeepEqual(ack.IDs, []int{0, 1, 2})
		resp, err := http.Get(base + "/api/v1/traces/" + ack.TraceID + "?format=perfetto")
		if err != nil {
			t.Fatalf("GET perfetto: %v", err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("perfetto export of %s does not parse: %v", ack.TraceID, err)
		}
		var tracks, want []string
		for _, ev := range doc.TraceEvents {
			if ev.Name == "thread_name" {
				tracks = append(tracks, fmt.Sprint(ev.Args["name"]))
			}
		}
		for _, id := range ack.IDs {
			want = append(want, fmt.Sprintf("job %d", id))
		}
		if !reflect.DeepEqual(tracks, want) {
			t.Errorf("perfetto tracks %v, want %v", tracks, want)
		}
	}
	if !remapped {
		t.Fatal("no submission got ids that differ from shard-local ones; the test shows nothing")
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}
