package cluster

import (
	"context"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"abg/internal/obs"
	"abg/internal/server"
)

// TestDrainedDaemonsAreCollected: a daemon or a cluster that has served,
// drained and been dropped leaves nothing behind that a process-wide table
// keeps reachable. Each daemon's bus (passed in through Config.Bus) and each
// shard's bus carries a finalizer, and every finalizer must run after GC.
// The bus stands in for its server: a finalizer on *server.Server itself
// proves nothing, because the server sits in reference cycles through its
// HTTP handlers and Go does not promise to finalize cyclic structures.
func TestDrainedDaemonsAreCollected(t *testing.T) {
	var collected atomic.Int32
	watched := 0
	watch := func(b *obs.Bus) {
		watched++
		runtime.SetFinalizer(b, func(*obs.Bus) { collected.Add(1) })
	}
	serve := func(base string, wait func() error) {
		req := server.JobRequest{Kind: "batch", Count: 4, Seed: 3, CL: 10}
		if code := postJSON(t, base+"/api/v1/jobs", req, nil); code != http.StatusAccepted {
			t.Fatalf("submit to %s: status %d", base, code)
		}
		if code := postJSON(t, base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
			t.Fatalf("drain %s: status %d", base, code)
		}
		if err := wait(); err != nil {
			t.Fatalf("Wait %s: %v", base, err)
		}
	}
	runDaemon := func() {
		bus := obs.NewBus()
		watch(bus)
		cfg := drainRaceConfig(t.TempDir())
		cfg.Addr, cfg.Bus = "127.0.0.1:0", bus
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := srv.Start(ctx); err != nil {
			t.Fatalf("Start: %v", err)
		}
		serve("http://"+srv.Addr(), srv.Wait)
	}
	runCluster := func() {
		c, err := New(Config{Addr: "127.0.0.1:0", Shards: 2, Shard: drainRaceConfig(t.TempDir())})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, sh := range c.shards {
			watch(sh.bus)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if err := c.Start(ctx); err != nil {
			t.Fatalf("Start: %v", err)
		}
		serve("http://"+c.Addr(), c.Wait)
	}
	for i := 0; i < 3; i++ {
		runDaemon()
	}
	runCluster()
	releaseConns()

	deadline := time.Now().Add(10 * time.Second)
	for int(collected.Load()) < watched {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d drained daemons' buses still reachable after GC", watched-int(collected.Load()), watched)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
