package main

// Crash-recovery soak (-crash): spawn a journaled abgd, feed it keyed jobs,
// SIGKILL it at random quanta, restart it on the same journal, and keep
// going — the retrying client rides through every restart. At the end the
// completed-job statuses reported by the (repeatedly crashed) daemon must
// DeepEqual server.ReferenceResult's uninterrupted replay of the journal:
// if recovery lost, duplicated, or perturbed anything, the comparison
// fails. Works with and without an active fault plan (-fault).

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"abg/internal/server"
)

// crashConfig parameterises one crash soak.
type crashConfig struct {
	abgd    string // abgd binary to spawn
	journal string // journal directory ("" = fresh temp dir)
	crashes int    // SIGKILL/restart cycles
	fault   string // fault spec forwarded to the daemon
	p, l    int
	run     runConfig
}

// daemonProc is one spawned abgd.
type daemonProc struct {
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait exactly once
}

func launchDaemon(cfg crashConfig, dir, addr string, extra ...string) (*daemonProc, error) {
	args := []string{
		"-addr", addr,
		"-P", fmt.Sprint(cfg.p), "-L", fmt.Sprint(cfg.l),
		"-clock", "wall", "-tick", "2ms",
		"-queue", fmt.Sprint(cfg.run.jobs + 64),
		"-journal", dir, "-snapshot-every", "8", "-fsync", "always",
		"-seed", fmt.Sprint(cfg.run.seed),
		"-log", "error",
	}
	if cfg.fault != "" {
		args = append(args, "-fault", cfg.fault)
	}
	args = append(args, extra...)
	cmd := exec.Command(cfg.abgd, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", cfg.abgd, err)
	}
	d := &daemonProc{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	return d, nil
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// waitHealthy polls /healthz until the daemon answers, watching for the
// process dying instead (e.g. failing to rebind its port).
func waitHealthy(ctx context.Context, client *server.Client, d *daemonProc) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := client.Health(ctx); err == nil {
			return nil
		}
		select {
		case err := <-d.done:
			d.done <- err // keep the channel primed for kill/reap paths
			return fmt.Errorf("daemon exited while booting: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after 15s")
		}
	}
}

// reservePort grabs a free loopback port and releases it for the daemon to
// bind. The fixed address is what lets one client ride across restarts.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// runCrashSoak is the -crash entry point.
func runCrashSoak(ctx context.Context, w io.Writer, cfg crashConfig) (err error) {
	dir := cfg.journal
	if dir == "" {
		dir, err = os.MkdirTemp("", "abgload-crash-")
		if err != nil {
			return err
		}
		defer func() {
			if err == nil {
				os.RemoveAll(dir)
			} else {
				fmt.Fprintf(os.Stderr, "abgload: journal kept at %s\n", dir)
			}
		}()
	}
	addr, err := reservePort()
	if err != nil {
		return err
	}
	client := server.NewClient(addr)
	client.Timeout = 5 * time.Second
	client.MaxAttempts = 12

	rng := rand.New(rand.NewSource(int64(cfg.run.seed)))
	d, err := launchDaemon(cfg, dir, addr)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	if err := waitHealthy(ctx, client, d); err != nil {
		return err
	}

	// Background SSE subscriber: reconnects across every crash with
	// Last-Event-ID and checks ids never repeat without an intervening
	// resync frame (replay after recovery legitimately re-issues ids the
	// subscriber already saw — but only after telling it to resync).
	sseCtx, sseCancel := context.WithCancel(ctx)
	defer sseCancel()
	var sseErr atomic.Value
	var sseEvents, sseResyncs atomic.Int64
	sseDone := make(chan struct{})
	sseClient := server.NewClient(addr)
	sseClient.MaxAttempts = 1 << 20 // the stream must outlive every restart
	go func() {
		defer close(sseDone)
		var last uint64
		allowBack := true
		sseClient.StreamEvents(sseCtx, 0, func(ev server.SSEEvent) error {
			if ev.Type == "resync" {
				sseResyncs.Add(1)
				allowBack = true
				last = ev.ID
				return nil
			}
			sseEvents.Add(1)
			if !allowBack && ev.ID <= last {
				sseErr.Store(fmt.Errorf("sse id went backwards without resync: %d after %d", ev.ID, last))
				return server.ErrStopStream
			}
			last, allowBack = ev.ID, false
			return nil
		})
	}()

	submitted := 0
	submitOne := func() error {
		i := submitted
		spec := cfg.run.spec
		spec.Name = fmt.Sprintf("crash-%d", i)
		spec.Seed = cfg.run.seed + uint64(i)
		spec.Key = fmt.Sprintf("crash-%d-%d", cfg.run.seed, i)
		ack, err := client.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		// Ids are assigned densely in submission order and recovery must
		// preserve them; a skew here means the restarted daemon renumbered.
		if len(ack.IDs) != 1 || ack.IDs[0] != i {
			return fmt.Errorf("submit %d: id skew: got ids %v (state %s)", i, ack.IDs, ack.State)
		}
		submitted++
		return nil
	}

	chunk := cfg.run.jobs / (cfg.crashes + 1)
	if chunk < 1 {
		chunk = 1
	}
	totalReplayed, totalTruncated := 0, int64(0)
	for cycle := 1; cycle <= cfg.crashes; cycle++ {
		for n := 0; n < chunk && submitted < cfg.run.jobs; n++ {
			if err := submitOne(); err != nil {
				return err
			}
		}
		// Let the scheduler run a random stretch of quanta, then pull the rug.
		// QuantaElapsed only advances while jobs execute, so if the chunk
		// finishes before the target the kill lands on an idle daemon —
		// also a legitimate crash point.
		st, err := client.State(ctx)
		if err != nil {
			return err
		}
		target := st.QuantaElapsed + 2 + rng.Intn(10)
		for st.QuantaElapsed < target && st.Completed < submitted {
			if err := ctx.Err(); err != nil {
				return err
			}
			time.Sleep(2 * time.Millisecond)
			if st, err = client.State(ctx); err != nil {
				return err
			}
		}
		d.kill()
		fmt.Fprintf(w, "crash %d/%d: SIGKILL at quantum %d (%d/%d jobs submitted)\n",
			cycle, cfg.crashes, st.QuantaElapsed, submitted, cfg.run.jobs)
		if d, err = launchDaemon(cfg, dir, addr); err != nil {
			return err
		}

		// Idempotency probe before the daemon is even up: the retrying
		// client rides the connection-refused window, and the recovered
		// daemon must answer the replayed key with the original ids.
		if submitted > 0 {
			j := rng.Intn(submitted)
			spec := cfg.run.spec
			spec.Name = fmt.Sprintf("crash-%d", j)
			spec.Seed = cfg.run.seed + uint64(j)
			spec.Key = fmt.Sprintf("crash-%d-%d", cfg.run.seed, j)
			ack, err := client.Submit(ctx, spec)
			if err != nil {
				return fmt.Errorf("crash %d: resubmit probe: %w", cycle, err)
			}
			if ack.State != "duplicate" || len(ack.IDs) != 1 || ack.IDs[0] != j {
				return fmt.Errorf("crash %d: resubmit of job %d double-admitted: ids %v state %q",
					cycle, j, ack.IDs, ack.State)
			}
		}
		if err := waitHealthy(ctx, client, d); err != nil {
			return err
		}
		rec, err := client.Recovery(ctx)
		if err != nil {
			return err
		}
		if !rec.Recovered {
			return fmt.Errorf("crash %d: daemon did not report recovery", cycle)
		}
		totalReplayed += rec.ReplayedRecords
		totalTruncated += rec.TruncatedBytes
		fmt.Fprintf(w, "crash %d/%d: recovered (snapshot at quantum %d, %d records replayed, %d torn bytes truncated)\n",
			cycle, cfg.crashes, rec.SnapshotQuantum, rec.ReplayedRecords, rec.TruncatedBytes)
	}
	for submitted < cfg.run.jobs {
		if err := submitOne(); err != nil {
			return err
		}
	}

	// Wait for every job to finish, then capture the daemon's view.
	var live []server.JobStatusDTO
	for {
		sts, err := client.Jobs(ctx)
		if err != nil {
			return err
		}
		done := 0
		for _, st := range sts {
			if st.State == "done" {
				done++
			}
		}
		if len(sts) == cfg.run.jobs && done == cfg.run.jobs {
			live = sts
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for completion (%d/%d done): %w", done, cfg.run.jobs, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	sseCancel()
	<-sseDone
	if e, ok := sseErr.Load().(error); ok {
		return e
	}

	if err := client.Drain(ctx, true); err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	select {
	case werr := <-d.done:
		d = nil
		if werr != nil {
			return fmt.Errorf("daemon exit after drain: %w", werr)
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("daemon did not exit after drain")
	}

	// The verdict: an uninterrupted replay of the journal must agree with
	// what the crashed-and-recovered daemon reported, job for job.
	ref, err := server.ReferenceResult(dir)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	sort.Slice(ref, func(i, j int) bool { return ref[i].ID < ref[j].ID })
	if len(ref) != len(live) {
		return fmt.Errorf("reference replay has %d jobs, live run reported %d", len(ref), len(live))
	}
	for i := range ref {
		a, b := live[i], ref[i]
		a.History, b.History = nil, nil // the list endpoint omits history
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("job %d diverged from reference:\n  live %+v\n  ref  %+v", a.ID, a, b)
		}
	}

	fmt.Fprintf(w, "crash soak passed: %d jobs, %d crashes, %d journal records replayed, %d torn bytes truncated\n",
		cfg.run.jobs, cfg.crashes, totalReplayed, totalTruncated)
	fmt.Fprintf(w, "  client: %d 429 retries, %d transport retries, %d deadline misses; sse: %d events, %d reconnects, %d resyncs\n",
		client.Retried429.Load(), client.RetriedTransport.Load(), client.DeadlineExceeded.Load(),
		sseEvents.Load(), sseClient.Reconnects.Load(), sseResyncs.Load())
	return nil
}
