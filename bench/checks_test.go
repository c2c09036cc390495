package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"abg/internal/persist"
	"abg/internal/server"
)

func TestEngineFingerprintCheck(t *testing.T) {
	good := engineFingerprint{makespan: 650, jobQuanta: 4750, totalWaste: 12345}
	if err := checkEngineFingerprints(1000, []engineFingerprint{good, good}); err != nil {
		t.Fatalf("matching reps rejected: %v", err)
	}
	for name, bad := range map[string]engineFingerprint{
		"makespan":   {makespan: 651, jobQuanta: 4750, totalWaste: 12345},
		"job-quanta": {makespan: 650, jobQuanta: 4751, totalWaste: 12345},
		"waste":      {makespan: 650, jobQuanta: 4750, totalWaste: 12346},
	} {
		if err := checkEngineFingerprints(1000, []engineFingerprint{good, bad}); err == nil {
			t.Errorf("a rep with the wrong %s passed", name)
		}
	}
	if err := checkEngineFingerprints(1000, nil); err == nil {
		t.Error("a run with no finished rep passed")
	}
}

// A journal with one flipped byte no longer replays to the daemon's jobs:
// the scan stops at the corrupt record, so the replay loses the rest.
func TestFlippedJournalByteFailsReference(t *testing.T) {
	ctx := context.Background()
	e := &env{seed: 3, quick: true, dir: t.TempDir()}
	dir := filepath.Join(e.dir, "journal")
	p := streamParams{jobs: 20, window: 1, batch: 1, cl: 20, shrink: 8}
	d, _, err := bootDurable(ctx, e, dir, p.jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ack samples
	acked, failed, err := stream(ctx, d.client, d.tr, p, e.seed, &ack, nil, "test")
	if err != nil || failed > 0 || len(acked) != p.jobs {
		t.Fatalf("stream: acked %d failed %d err %v", len(acked), failed, err)
	}
	if err := d.shutdown(); err != nil {
		t.Fatal(err)
	}
	live := d.srv.JobStatuses()
	if err := checkReference(dir, live); err != nil {
		t.Fatalf("intact journal: %v", err)
	}

	path := filepath.Join(dir, persist.JournalFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkReference(dir, live); err == nil {
		t.Fatal("a journal with a flipped byte still matched the daemon's jobs")
	}
}

// A frame the daemon dropped fails the event stream at once, whether the
// daemon says so with a resync frame or the ids jump; the frames before it
// are delivered.
func TestEventStreamFailsOnLostFrame(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{"id: 7\ndata: {}\n\nid: 8\ndata: {}\n\nid: 10\ndata: {}\n\n", "jumped from 8 to 10"},
		{"id: 7\ndata: {}\n\nid: 8\ndata: {}\n\nid: 8\nevent: resync\ndata: {}\n\n", "dropped frames"},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprint(w, c.body)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}))
		frames := 0
		s := startStream(context.Background(), server.NewClient(srv.URL), func([]byte) error { frames++; return nil })
		select {
		case err := <-s.done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("stream ended with %v, want %q", err, c.want)
			}
			if frames != 2 {
				t.Errorf("%d frames delivered before the lost one, want 2", frames)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("stream did not fail on %q", c.want)
			s.stop()
		}
		srv.Close()
	}
}
