package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"sync"
	"time"

	"abg/internal/obs"
	"abg/internal/server"
)

// durable: a plain in-process abgd (server.New + Start) on the virtual
// clock, P = 64, L = 200, journal fsync never. One closed-loop submitter
// keeps one job in flight (batch, CL 20, Shrink 8) and waits for its
// job_completed frame on one SSE subscriber. The engine is nearly idle, so
// the time goes to HTTP, admission, journal records, snapshots and SSE —
// the write path engine-10k bypasses. Every record still reaches the page
// cache before its ack, so the journal survives the process; fsync is left
// out because with it most of a job's time was the shared host's disk,
// which halved throughput for minutes at a time (bench/README.md,
// "Workloads measured and left out"). A round is 1000 jobs, enough for a
// p99 with ten samples beyond it.
var durableStream = streamParams{jobs: 1000, window: 1, batch: 1, cl: 20, shrink: 8}

// setupBoots is how many extra cold boots measure set-up time on top of
// the rounds' own.
const setupBoots = 4

func durableConfig(e *env, dir string) server.Config {
	return server.Config{
		Addr: "127.0.0.1:0", P: 64, L: 200, Clock: server.ClockVirtual,
		JournalDir: dir, Fsync: "never", Seed: e.seed,
	}
}

// runDurable boots setupBoots cold daemons for set-up time, runs untraced
// rounds and — in a traced run, after a third of the time — traced ones,
// then reports.
func runDurable(ctx context.Context, e *env) (*result, error) {
	p := durableStream
	if e.quick {
		p.jobs = 30
	}
	checks := &verdicts{}
	plain, traced := &daemonAcc{checks: checks}, &daemonAcc{checks: checks}
	host := newHostProbe()
	for i := range setupBoots {
		dir := filepath.Join(e.dir, fmt.Sprintf("durable-boot-%d", i))
		d, setup, err := bootDurable(ctx, e, dir, 0, nil)
		if err != nil {
			return nil, err
		}
		plain.setup.add(setup.Seconds())
		checks.verify("daemon drains cleanly", d.shutdown())
		removeAll(dir)
	}
	plainBudget := e.seconds
	if e.trace {
		plainBudget = e.seconds / 3
	}
	err := runRounds(ctx, plainBudget, plain, func(r int) error { return durableRound(ctx, e, p, r, false, host, plain) })
	if err == nil && e.trace {
		err = runRounds(ctx, e.seconds-plainBudget, traced, func(r int) error { return durableRound(ctx, e, p, r, true, host, traced) })
	}
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.attempted = plain.attempted + traced.attempted
	res.failed = plain.failed + traced.failed
	checks.into(res)
	if e.trace {
		traced.reportLayers(res, plain)
	} else {
		plain.report(res, host.typicalSlowdown())
	}
	res.set("host.slowdown", host.typicalSlowdown(), len(host.typical))
	return res, nil
}

// durableDaemon is one booted daemon with the benchmark's client and event
// stream attached.
type durableDaemon struct {
	srv    *server.Server
	drain  context.CancelFunc
	hc     *http.Client
	client *server.Client
	tr     *tracker
	probe  *emitProbe
	stream *eventStream
}

// bootDurable starts a daemon on dir and returns once its event stream is
// connected, with the time that took. A non-nil probe is subscribed around
// server.New to time the daemon's own event fan-out.
func bootDurable(ctx context.Context, e *env, dir string, jobs int, probe *emitProbe) (*durableDaemon, time.Duration, error) {
	cfg := durableConfig(e, dir)
	cfg.Bus = obs.NewBus()
	if probe != nil {
		cfg.Bus.Subscribe(obs.SubscriberFunc(probe.before))
	}
	start := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if probe != nil {
		cfg.Bus.Subscribe(obs.SubscriberFunc(probe.after))
	}
	dctx, drain := context.WithCancel(ctx)
	if err := srv.Start(dctx); err != nil {
		drain()
		srv.Kill()
		return nil, 0, err
	}
	d := &durableDaemon{srv: srv, drain: drain, hc: newHTTPClient(), probe: probe}
	d.client = newClient(srv.Addr(), d.hc)
	d.tr = newTracker(jobs, probe)
	d.stream = startStream(ctx, d.client, d.tr.onFrame)
	if err := d.stream.waitConnected(ctx); err != nil {
		d.shutdown()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// shutdown ends the event stream and drains the daemon the way SIGTERM
// does, by cancelling its context (see the note on draining in daemon.go).
func (d *durableDaemon) shutdown() error {
	streamErr := d.stream.stop()
	d.drain()
	err := d.srv.Wait()
	d.hc.CloseIdleConnections()
	return firstErr(err, streamErr)
}

// durableRound boots a fresh daemon, streams p.jobs jobs through it, then
// drains it and checks the journal replays to the daemon's results.
func durableRound(ctx context.Context, e *env, p streamParams, round int, traced bool, host *hostProbe, acc *daemonAcc) error {
	dir := filepath.Join(e.dir, fmt.Sprintf("durable-%t-%d", traced, round))
	defer removeAll(dir)
	var probe *emitProbe
	var spans *spanLog
	if traced {
		probe, spans = newEmitProbe(), e.spans
	}
	base, _ := heapAfterGC()
	host.sample()
	d, setup, err := bootDurable(ctx, e, dir, p.jobs, probe)
	if err != nil {
		return err
	}
	acc.setup.add(setup.Seconds())
	phase := startPhase()
	acked, failed, err := stream(ctx, d.client, d.tr, p, e.seed, &acc.ack, spans, "durable")
	if err != nil {
		d.shutdown()
		return err
	}
	phase.end(acc)
	acc.heap.add(heapSince(base))
	acc.attempted += p.jobs
	acc.failed += failed
	st, err := d.client.State(ctx)
	acc.checks.verify("state read", err)
	if traced {
		acc.checks.verify("metrics scrape", d.scrape(ctx, st, acc))
	}
	acc.checks.verify("daemon drains cleanly", d.shutdown())
	acc.checks.verify("every acked job completes", d.tr.roundStats(acked, st.SSEDropped, acc, spans, "durable"))
	acc.checks.verify("journal replay equals the daemon's jobs", checkReference(dir, d.srv.JobStatuses()))
	if traced {
		acc.fanout += probe.fanout
		acc.fanEvents += probe.events
		acc.checks.verify("journal scan", acc.journal.scanJournal(dir))
	}
	acc.checks.verify("journal recovers", timeRecover(acc, func() error {
		s, err := server.New(durableConfig(e, dir))
		if err == nil {
			s.Kill()
		}
		return err
	}))
	return nil
}

// scrape reads the daemon's /metrics at the end of the measured phase and
// folds in the state read then.
func (d *durableDaemon) scrape(ctx context.Context, st server.StateDTO, acc *daemonAcc) error {
	if err := acc.prom.scrape(ctx, d.hc, d.client.Base); err != nil {
		return err
	}
	acc.prom.sseDropped += float64(st.SSEDropped)
	acc.retries += d.client.Retried429.Load() + d.client.RetriedTransport.Load()
	return nil
}

// eventStream follows the daemon's /api/v1/events through
// server.Client.StreamEvents on a goroutine of its own.
type eventStream struct {
	cancel    context.CancelFunc
	done      chan error
	connected chan struct{}
}

// startStream hands every frame's data to fn, in order. A lost frame fails
// the stream rather than a job later: the daemon drops frames for a
// subscriber more than 1024 behind (a closed loop with one job in flight
// never is) and says so with a resync frame or a jump in the event ids.
func startStream(ctx context.Context, c *server.Client, fn func(data []byte) error) *eventStream {
	ctx, cancel := context.WithCancel(ctx)
	s := &eventStream{cancel: cancel, done: make(chan error, 1), connected: make(chan struct{})}
	// The daemon registers a subscriber before it writes the response
	// header, so the header's first byte means frames are being kept for it.
	var once sync.Once
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotFirstResponseByte: func() { once.Do(func() { close(s.connected) }) },
	})
	go func() {
		var last uint64
		var failed error
		err := c.StreamEvents(ctx, 0, func(ev server.SSEEvent) error {
			switch {
			case ev.Type == "resync":
				failed = errors.New("event stream: the daemon dropped frames for the subscriber")
			case last != 0 && ev.ID != last+1:
				failed = fmt.Errorf("event stream: ids jumped from %d to %d", last, ev.ID)
			default:
				last = ev.ID
				failed = fn(ev.Data)
			}
			if failed != nil {
				// StreamEvents would reconnect after this frame and carry on.
				cancel()
			}
			return failed
		})
		if failed == nil && ctx.Err() != nil {
			err = nil // stopped
		}
		s.done <- firstErr(failed, err)
	}()
	return s
}

// waitConnected returns once the daemon has registered the subscription.
func (s *eventStream) waitConnected(ctx context.Context) error {
	select {
	case <-s.connected:
		return nil
	case err := <-s.done:
		s.done <- err // keep it for stop
		return fmt.Errorf("event stream ended before it connected: %v", err)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop ends the stream and waits for its goroutine.
func (s *eventStream) stop() error {
	s.cancel()
	return <-s.done
}
