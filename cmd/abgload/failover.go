package main

// Self-healing failover soak (-failover): spawn a three-member replication
// group (leader plus two followers, every member running the election
// supervisor), feed it keyed jobs through one group-aware client, and
// repeatedly SIGKILL whichever daemon currently leads. Nobody calls
// /api/v1/promote: the survivors must detect the death, elect the
// most-caught-up follower under a new fencing epoch, and keep serving — the
// client rides every election by re-discovering the leader on its own. Each
// killed leader is restarted on a FRESH journal directory as a follower of
// the new leader, so the group is back to full strength before the next
// kill. After the last election one follower is SIGKILLed as well and
// relaunched on its OWN journal directory, so its boot recovery replays a
// follower journal before the stream resumes at its end. At the end the
// final leader's results must DeepEqual an
// uninterrupted reference replay of ITS journal, and both other members'
// journals must be byte copies of it — no fenced write survives anywhere.
// Works with and without -fault.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"time"

	"abg/internal/persist"
	"abg/internal/server"
)

// soak election timers: fast enough that three elections fit in a CI soak,
// slow enough that probe timeouts (>= 500ms, see internal/failover) resolve.
const (
	soakProbeEvery = "50ms"
	soakFailAfter  = "600ms"
)

// replProbe fetches base's /api/v1/replication.
func replProbe(ctx context.Context, base string) (server.ReplicationDTO, error) {
	var dto server.ReplicationDTO
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/replication", nil)
	if err != nil {
		return dto, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return dto, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return dto, fmt.Errorf("replication probe %s: status %d", base, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		return dto, err
	}
	return dto, nil
}

// waitCaughtUp polls the member until its journal holds at least want bytes.
func waitCaughtUp(ctx context.Context, base string, want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	var got int64
	for {
		dto, err := replProbe(ctx, base)
		if err == nil {
			got = dto.JournalBytes
			if got >= want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("member %s stuck at %d/%d journal bytes", base, got, want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitElected polls the survivors (dead excluded) until one is a confirmed,
// unfenced leader under at least minEpoch, and returns its index and status.
func waitElected(ctx context.Context, urls []string, dead int, minEpoch uint32) (int, server.ReplicationDTO, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		for i, u := range urls {
			if i == dead {
				continue
			}
			dto, err := replProbe(ctx, u)
			if err != nil {
				continue
			}
			if dto.Role == "leader" && !dto.Fenced && dto.Confirmed && dto.Epoch >= minEpoch {
				return i, dto, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, server.ReplicationDTO{}, fmt.Errorf("no member promoted itself to epoch >= %d within 30s", minEpoch)
		}
		select {
		case <-ctx.Done():
			return 0, server.ReplicationDTO{}, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// launchMember spawns one group daemon. follow is empty for the boot leader;
// every member carries the full group and its own advertised URL so its
// supervisor can elect and be elected.
func launchMember(cfg crashConfig, dir, addr string, urls []string, follow string) (*daemonProc, error) {
	extra := []string{
		"-group", strings.Join(urls, ","),
		"-advertise", "http://" + addr,
		"-probe-every", soakProbeEvery,
		"-fail-after", soakFailAfter,
	}
	if follow != "" {
		extra = append(extra, "-follow", follow)
	}
	return launchDaemon(cfg, dir, addr, extra...)
}

// runFailoverSoak is the -failover entry point. It returns a report so the
// run participates in -json output with its failover counters.
func runFailoverSoak(ctx context.Context, w io.Writer, cfg crashConfig) (rep *report, err error) {
	kills := cfg.crashes
	if kills < 1 {
		kills = 1
	}
	const n = 3

	// Journal directories: dirs[i] is member i's CURRENT directory; every
	// directory ever used is kept for the failure diagnostics path.
	dirs := make([]string, n)
	var allDirs []string
	freshDir := func() (string, error) {
		d, derr := os.MkdirTemp("", "abgload-failover-")
		if derr == nil {
			allDirs = append(allDirs, d)
		}
		return d, derr
	}
	defer func() {
		if err == nil {
			for _, d := range allDirs {
				os.RemoveAll(d)
			}
		} else {
			fmt.Fprintf(os.Stderr, "abgload: journals kept at %v\n", allDirs)
		}
	}()

	addrs := make([]string, n)
	urls := make([]string, n)
	for i := range addrs {
		if addrs[i], err = reservePort(); err != nil {
			return nil, err
		}
		urls[i] = "http://" + addrs[i]
	}

	procs := make([]*daemonProc, n)
	defer func() {
		for _, d := range procs {
			if d != nil {
				d.kill()
			}
		}
	}()
	for i := 0; i < n; i++ {
		if dirs[i], err = freshDir(); err != nil {
			return nil, err
		}
		follow := ""
		if i > 0 {
			follow = urls[0]
		}
		if procs[i], err = launchMember(cfg, dirs[i], addrs[i], urls, follow); err != nil {
			return nil, err
		}
		mc := server.NewClient(addrs[i])
		mc.Timeout = 5 * time.Second
		if err := waitHealthy(ctx, mc, procs[i]); err != nil {
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
	}
	fmt.Fprintf(w, "failover soak: group %s, %d leader kills ahead\n", strings.Join(addrs, " "), kills)

	// One client for the whole soak: it must follow the leadership wherever
	// the elections move it, with no help from the harness.
	client := server.NewClient(addrs[0])
	client.Group = urls
	client.Timeout = 5 * time.Second
	client.MaxAttempts = 40

	rep = &report{label: "failover"}
	submitted := 0
	submitOne := func() error {
		i := submitted
		spec := cfg.run.spec
		spec.Name = fmt.Sprintf("failover-%d", i)
		spec.Seed = cfg.run.seed + uint64(i)
		spec.Key = fmt.Sprintf("failover-%d-%d", cfg.run.seed, i)
		t0 := time.Now()
		ack, err := client.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		if len(ack.IDs) != 1 || ack.IDs[0] != i {
			return fmt.Errorf("submit %d: id skew: got ids %v (state %s)", i, ack.IDs, ack.State)
		}
		rep.submitMS = append(rep.submitMS, float64(time.Since(t0).Microseconds())/1000)
		rep.submitted++
		submitted++
		return nil
	}

	start := time.Now()
	chunk := cfg.run.jobs / (kills + 1)
	if chunk < 1 {
		chunk = 1
	}
	leader := 0
	epoch := uint32(1)
	for k := 1; k <= kills; k++ {
		for submitted < k*chunk && submitted < cfg.run.jobs {
			if err := submitOne(); err != nil {
				return nil, err
			}
		}

		// Every acked submission must be on both followers before the kill:
		// the election promotes the longest journal, and the soak asserts job
		// ids stay dense across every failover.
		lead, err := replProbe(ctx, urls[leader])
		if err != nil {
			return nil, err
		}
		for i := range urls {
			if i == leader {
				continue
			}
			if err := waitCaughtUp(ctx, urls[i], lead.JournalBytes); err != nil {
				return nil, err
			}
		}

		procs[leader].kill()
		procs[leader] = nil
		killedAt := time.Now()
		fmt.Fprintf(w, "failover %d/%d: SIGKILLed leader %s (epoch %d, %d/%d jobs, %d journal bytes shipped)\n",
			k, kills, addrs[leader], epoch, submitted, cfg.run.jobs, lead.JournalBytes)

		// Reads must ride the outage on the surviving members.
		if _, err := client.State(ctx); err != nil {
			return nil, fmt.Errorf("read during leader outage %d: %w", k, err)
		}

		// So must a write: submitted into the outage, it retries until a
		// survivor wins the election and acks it — the client re-discovers
		// the leadership on its own, with no help from the harness.
		if submitted < cfg.run.jobs {
			if err := submitOne(); err != nil {
				return nil, fmt.Errorf("write during leader outage %d: %w", k, err)
			}
		}

		// The group heals itself: no /promote — just wait for a survivor to
		// win an election under a higher epoch.
		newLeader, dto, err := waitElected(ctx, urls, leader, epoch+1)
		if err != nil {
			return nil, fmt.Errorf("failover %d: %w", k, err)
		}
		if dto.Promotions < 1 {
			return nil, fmt.Errorf("failover %d: winner %s reports no promotion", k, addrs[newLeader])
		}
		rep.promotionsMs = append(rep.promotionsMs, float64(time.Since(killedAt).Microseconds())/1000)
		fmt.Fprintf(w, "failover %d/%d: %s self-promoted to epoch %d %.0fms after the kill\n",
			k, kills, addrs[newLeader], dto.Epoch, rep.promotionsMs[len(rep.promotionsMs)-1])

		// Restart the killed member as a follower of the new leader, on a
		// fresh journal: its old journal may hold acked-but-unshipped records
		// past the surviving prefix, and the exact-prefix contract means a
		// rejoin starts over rather than splicing histories.
		if dirs[leader], err = freshDir(); err != nil {
			return nil, err
		}
		if procs[leader], err = launchMember(cfg, dirs[leader], addrs[leader], urls, urls[newLeader]); err != nil {
			return nil, err
		}
		mc := server.NewClient(addrs[leader])
		mc.Timeout = 5 * time.Second
		if err := waitHealthy(ctx, mc, procs[leader]); err != nil {
			return nil, fmt.Errorf("rejoined member %s: %w", addrs[leader], err)
		}
		leader, epoch = newLeader, dto.Epoch
	}

	// Reboot one caught-up follower in place: SIGKILL it and relaunch it on
	// its own journal, following the current leader. The end checks then
	// hold it to the same byte-copy journal as a member that never died.
	f := (leader + 1) % n
	lead, err := replProbe(ctx, urls[leader])
	if err != nil {
		return nil, err
	}
	if err := waitCaughtUp(ctx, urls[f], lead.JournalBytes); err != nil {
		return nil, err
	}
	procs[f].kill()
	procs[f] = nil
	if procs[f], err = launchMember(cfg, dirs[f], addrs[f], urls, urls[leader]); err != nil {
		return nil, err
	}
	mc := server.NewClient(addrs[f])
	mc.Timeout = 5 * time.Second
	if err := waitHealthy(ctx, mc, procs[f]); err != nil {
		return nil, fmt.Errorf("rebooted follower %s: %w", addrs[f], err)
	}
	fmt.Fprintf(w, "rebooted follower %s on its own journal (%d bytes shipped)\n", addrs[f], lead.JournalBytes)

	for submitted < cfg.run.jobs {
		if err := submitOne(); err != nil {
			return nil, err
		}
	}

	var live []server.JobStatusDTO
	for {
		sts, err := client.Jobs(ctx)
		if err != nil {
			return nil, err
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
			return nil, fmt.Errorf("waiting for completion (%d/%d done): %w", done, cfg.run.jobs, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	rep.wall = time.Since(start)
	for _, st := range live {
		rep.responses = append(rep.responses, float64(st.Response))
		if st.NumQuanta > 0 {
			rep.deprivedFrac = append(rep.deprivedFrac, float64(st.DeprivedQuanta)/float64(st.NumQuanta))
		}
	}
	if rep.state, err = client.State(ctx); err != nil {
		return nil, err
	}
	rep.retried429 = client.Retried429.Load()
	rep.retriedXport = client.RetriedTransport.Load()
	rep.readRetargets = client.ReadRetargets.Load()
	rep.failovers = client.Failovers.Load()
	rep.fencedWrites = client.FencedWrites.Load()
	if rep.failovers < int64(kills) {
		return nil, fmt.Errorf("client saw %d leader changes across %d kills — writes were not failover-transparent", rep.failovers, kills)
	}
	if rep.readRetargets == 0 {
		return nil, fmt.Errorf("no read was ever retargeted despite %d leader outages", kills)
	}

	// Let both followers catch all the way up, then drain the leader; the
	// followers see the shipped drain record and their leader's clean
	// end-of-stream, and drain themselves out.
	lead, err = replProbe(ctx, urls[leader])
	if err != nil {
		return nil, err
	}
	for i := range urls {
		if i != leader {
			if err := waitCaughtUp(ctx, urls[i], lead.JournalBytes); err != nil {
				return nil, err
			}
		}
	}
	if err := client.Drain(ctx, true); err != nil {
		return nil, fmt.Errorf("drain leader: %w", err)
	}
	for i := range procs {
		select {
		case werr := <-procs[i].done:
			procs[i] = nil
			if werr != nil {
				return nil, fmt.Errorf("daemon %s exit after drain: %w", addrs[i], werr)
			}
		case <-time.After(15 * time.Second):
			return nil, fmt.Errorf("daemon %s did not exit after drain", addrs[i])
		}
	}

	// Verdict 1: the final leader's results equal an uninterrupted replay of
	// its own journal.
	ref, err := server.ReferenceResult(dirs[leader])
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	sort.Slice(ref, func(i, j int) bool { return ref[i].ID < ref[j].ID })
	if len(ref) != len(live) {
		return nil, fmt.Errorf("reference replay has %d jobs, live run reported %d", len(ref), len(live))
	}
	for i := range ref {
		a, b := live[i], ref[i]
		a.History, b.History = nil, nil // the list endpoint omits history
		if !reflect.DeepEqual(a, b) {
			return nil, fmt.Errorf("job %d diverged from reference:\n  live %+v\n  ref  %+v", a.ID, a, b)
		}
	}

	// Verdict 2: both surviving members hold byte copies of the final
	// leader's journal — the elections never forked history, and no write
	// acked under a fenced epoch survives in any journal.
	lRaw, err := os.ReadFile(filepath.Join(dirs[leader], persist.JournalFile))
	if err != nil {
		return nil, err
	}
	if len(lRaw) == 0 {
		return nil, fmt.Errorf("final leader journal is empty")
	}
	for i := range dirs {
		if i == leader {
			continue
		}
		fRaw, err := os.ReadFile(filepath.Join(dirs[i], persist.JournalFile))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(lRaw, fRaw) {
			return nil, fmt.Errorf("member %s journal diverged: leader %d bytes, member %d", addrs[i], len(lRaw), len(fRaw))
		}
	}

	fmt.Fprintf(w, "failover soak passed: %d jobs across %d automated failovers (final epoch %d), %d fenced writes refused, journals byte-identical (%d bytes)\n",
		cfg.run.jobs, kills, epoch, rep.fencedWrites, len(lRaw))
	return rep, nil
}
