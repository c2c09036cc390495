package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"abg/internal/persist"
	"abg/internal/server"
)

// Drain races: keyed submitters keep posting while POST /api/v1/drain?wait=1
// lands mid-run. Whatever the interleaving, Wait reports a clean drain,
// every 202-acked job runs to completion, and each journal holds exactly one
// drain record with no submit record after it — on a plain daemon and on a
// 2-shard cluster alike.

// frontDoor is a started daemon or cluster under test.
type frontDoor struct {
	base     string
	wait     func() error
	journals func() []string
}

func drainRaceConfig(dir string) server.Config {
	return server.Config{
		P: 16, L: 20, Clock: server.ClockVirtual,
		JournalDir: dir, Fsync: "never",
	}
}

func startDaemon(t *testing.T, dir string) frontDoor {
	t.Helper()
	cfg := drainRaceConfig(dir)
	cfg.Addr = "127.0.0.1:0"
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := srv.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return frontDoor{
		base:     "http://" + srv.Addr(),
		wait:     srv.Wait,
		journals: func() []string { return []string{srv.Recovery().JournalPath} },
	}
}

func startCluster(t *testing.T, dir string) frontDoor {
	t.Helper()
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Shard: drainRaceConfig(dir)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return frontDoor{
		base: "http://" + c.Addr(),
		wait: c.Wait,
		journals: func() []string {
			var paths []string
			for _, sh := range c.shards {
				paths = append(paths, sh.srv.Recovery().JournalPath)
			}
			return paths
		},
	}
}

func TestDrainRacesSubmissions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(*testing.T, string) frontDoor
	}{
		{"daemon", startDaemon},
		{"cluster", startCluster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 6; round++ {
				fd := tc.start(t, t.TempDir())
				acked := submitThroughDrain(t, fd.base)
				var jobs []server.JobStatusDTO
				getJSON(t, fd.base+"/api/v1/jobs", &jobs)
				releaseConns()
				if err := fd.wait(); err != nil {
					t.Fatalf("round %d: Wait: %v", round, err)
				}
				state := make(map[int]string, len(jobs))
				for _, j := range jobs {
					state[j.ID] = j.State
				}
				for _, id := range acked {
					if state[id] != "done" {
						t.Fatalf("round %d: acked job %d is %q after the drain, want done", round, id, state[id])
					}
				}
				for _, path := range fd.journals() {
					checkDrainTail(t, path)
				}
			}
		})
	}
}

// submitThroughDrain runs four keyed submitters against base until admission
// closes, posts the drain once the first acks are in, and returns every id
// acked 202.
func submitThroughDrain(t *testing.T, base string) []int {
	t.Helper()
	var (
		mu      sync.Mutex
		acked   []int
		wg      sync.WaitGroup
		started = make(chan struct{})
		once    sync.Once
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				ids, ok := submitOnce(base, server.JobRequest{
					Kind: "serial", Quanta: 2, Key: fmt.Sprintf("w%d-%d", w, i),
				})
				if !ok { // 503 once admission closes
					return
				}
				mu.Lock()
				acked = append(acked, ids...)
				n := len(acked)
				mu.Unlock()
				if n >= 16 {
					once.Do(func() { close(started) })
				}
			}
		}(w)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("submitters never got going")
	}
	if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	wg.Wait()
	return acked
}

// submitOnce posts one request, reporting the acked ids and whether the
// answer was 202. Safe off the test goroutine.
func submitOnce(base string, req server.JobRequest) ([]int, bool) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var ack server.SubmitResponse
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&ack) != nil {
		return nil, false
	}
	return ack.IDs, true
}

// checkDrainTail asserts the journal holds exactly one drain record and no
// submit record after it.
func checkDrainTail(t *testing.T, path string) {
	t.Helper()
	scan, err := persist.ScanFile(path)
	if err != nil {
		t.Fatalf("scan %s: %v", path, err)
	}
	drains := 0
	for i, rec := range scan.Records {
		switch rec.Kind {
		case persist.KindDrain:
			drains++
		case persist.KindSubmit:
			if drains > 0 {
				t.Fatalf("%s: submit record %d follows the drain record", path, i)
			}
		}
	}
	if drains != 1 {
		t.Fatalf("%s: %d drain records, want 1", path, drains)
	}
}

// TestDrainDoesNotWaitForSilentConnection: a client that dialed the front
// door and never sent a request must not hold Wait once the drain is done.
// net/http counts such a connection as active until it is 5 s old, so
// without the front door closing it Wait took 5 s.
func TestDrainDoesNotWaitForSilentConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(*testing.T, string) frontDoor
	}{
		{"daemon", startDaemon},
		{"cluster", startCluster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fd := tc.start(t, t.TempDir())
			conn, err := net.Dial("tcp", strings.TrimPrefix(fd.base, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if code := postJSON(t, fd.base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
				t.Fatalf("drain: status %d", code)
			}
			start := time.Now()
			if err := fd.wait(); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if d := time.Since(start); d >= time.Second {
				t.Fatalf("Wait took %v after the drain with one silent connection open, want under 1s", d)
			}
		})
	}
}

// startHourly starts a 2-shard front door whose wall clock ticks hourly, so
// every job acked before the drain is still queued when it begins.
func startHourly(t *testing.T) (*Cluster, string) {
	t.Helper()
	c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Shard: server.Config{
		P: 16, L: 50, Clock: server.ClockWall, Tick: time.Hour,
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		releaseConns()
		if err := c.Wait(); err != nil {
			t.Errorf("Wait: %v", err)
		}
	})
	if err := c.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c, "http://" + c.Addr()
}

// TestKeyedRetryDuringDrain: the front door routes a keyed retry to the
// shard holding its promise, whose admission gate answers it with the
// original global ids while the cluster drains; a new submission gets 503.
func TestKeyedRetryDuringDrain(t *testing.T) {
	c, base := startHourly(t)
	req := server.JobRequest{Kind: "serial", Quanta: 2, Count: 3, Key: "acked"}
	var first, retry SubmitResponse
	if code := postJSON(t, base+"/api/v1/jobs", req, &first); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	c.Drain()
	if code := postJSON(t, base+"/api/v1/jobs", req, &retry); code != http.StatusOK ||
		retry.State != "duplicate" || !reflect.DeepEqual(retry.IDs, first.IDs) || retry.Shard != first.Shard {
		t.Fatalf("retry while draining: %d %+v, want 200 duplicate of %+v", code, retry, first)
	}
	for _, key := range []string{"", "new"} {
		var bad server.ErrorDTO
		fresh := server.JobRequest{Kind: "serial", Key: key}
		if code := postJSON(t, base+"/api/v1/jobs", fresh, &bad); code != http.StatusServiceUnavailable ||
			!strings.Contains(bad.Error, "draining") {
			t.Fatalf("submission with key %q while draining: %d %q, want 503 draining", key, code, bad.Error)
		}
	}
}

// TestDrainKeepsPaceWithReader: on one CPU, a reader of the merged stream
// that keeps reading gets every frame of a drain four times the size of its
// queue.
func TestDrainKeepsPaceWithReader(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, base := startHourly(t)
	frames := collectSSE(t, base)
	for i := 0; i < 25; i++ {
		req := server.JobRequest{Kind: "fullPar", Width: 12, Quanta: 4}
		if code := postJSON(t, base+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	c.Drain()
	<-c.drained
	got := len(<-frames)
	if st := c.state(); st.SSEDropped != 0 || uint64(got) != st.LastEventID || got < 3000 {
		t.Fatalf("reader got %d of %d frames, %d dropped; want all of them, at least 3000",
			got, st.LastEventID, st.SSEDropped)
	}
}
