package main

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
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"abg/internal/obs"
	"abg/internal/persist"
	"abg/internal/server"
)

// The daemon workload runs fresh in-process daemons in rounds of a fixed
// number of operations until the measured time is spent. A daemon's per-job
// cost grows with the jobs it has served (every snapshot re-encodes them
// all), so fixed-size rounds keep a faster build from being charged for
// serving more. Every round sends the identical requests, so the rounds are
// repetitions of one piece of work, and every timing is the median over
// rounds (or boots) of that round's figure, divided by the host's typical
// slowdown (host.go). A job's latency here is hand-offs between goroutines
// and syscalls whose fastest case a run of a few dozen rounds reaches only
// by luck: each job's fastest round, which suits engine-10k's pure
// computation, spread about 1.4 times as wide over runs as the median
// round (bench/README.md, "Host speed").

// Draining. Daemons are drained by cancelling the context their Start
// received — the path SIGTERM takes in abgd — never by calling Drain
// directly. Drain sets the draining flag before it journals the drain
// record, so a driver that is still stepping can finish its final drain and
// close the journal first, leaving the drain record out (a follower of that
// journal never drains out). On cancellation the driver journals the drain
// record itself before it drains.

// completionTimeout bounds the wait for the next completion frame; a job
// not seen by then counts as failed. Jobs complete within about 2 s.
const completionTimeout = 10 * time.Second

// newHTTPClient gives each round its own connections: the daemon under test
// sees at most two from the benchmark, the event stream and one request at a
// time.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

func newClient(base string, hc *http.Client) *server.Client {
	c := server.NewClient(base)
	c.HTTP = hc
	return c
}

// streamParams shape a closed-loop stream of batch jobs: at most window
// jobs in flight, a request for batch more posted whenever that many have
// completed.
type streamParams struct {
	jobs, window, batch int
	cl, shrink          int
}

// tracker follows one round's jobs from the client's send to the event
// stream's job_admitted and job_completed frames.
type tracker struct {
	emitted *emitProbe // nil unless the daemon's bus is probed
	// done receives one value per completion frame, buffered to the
	// round's job count so the stream reader never blocks on it.
	done chan struct{}

	mu        sync.Mutex
	sent      map[int]time.Time
	acked     map[int]time.Time
	admitted  map[int]time.Time
	completed map[int]time.Time
	frames    int
	delivery  samples // µs from bus emission to client receipt
}

func newTracker(jobs int, emitted *emitProbe) *tracker {
	return &tracker{
		emitted: emitted, done: make(chan struct{}, jobs),
		sent: make(map[int]time.Time), acked: make(map[int]time.Time),
		admitted: make(map[int]time.Time), completed: make(map[int]time.Time),
	}
}

// frameDTO is the part of an SSE event payload the tracker reads.
type frameDTO struct {
	Kind string `json:"kind"`
	Job  int    `json:"job"`
}

var lifecycleKind = []byte(`"kind":"job_`)

// onFrame is the event stream's callback.
func (t *tracker) onFrame(data []byte) error {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.frames++
	if !bytes.Contains(data, lifecycleKind) {
		return nil
	}
	var f frameDTO
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("event frame %q: %w", data, err)
	}
	switch f.Kind {
	case "job_admitted":
		t.admitted[f.Job] = now
	case "job_completed":
		t.completed[f.Job] = now
		if at, ok := t.emitted.completedAt(f.Job); ok {
			t.delivery.add(float64(now.Sub(at).Nanoseconds()) / 1e3)
		}
		select {
		case t.done <- struct{}{}:
		default:
		}
	}
	return nil
}

func (t *tracker) ack(ids []int, sent, acked time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.sent[id], t.acked[id] = sent, acked
	}
}

// stream runs one round's closed loop and returns the acked ids and the
// number of jobs whose submission failed. It ends once a completion frame
// has arrived for every acked job, or none arrived for completionTimeout.
// Every round with the same seed sends the same requests.
func stream(ctx context.Context, c *server.Client, t *tracker, p streamParams, seed uint64,
	ack *samples, spans *spanLog, track string) (acked []int, failed int, err error) {
	inflight, next, completions := 0, 0, 0
	timer := time.NewTimer(completionTimeout)
	defer timer.Stop()
	for {
		for next < p.jobs && inflight+p.batch <= p.window {
			n := min(p.batch, p.jobs-next)
			req := server.JobRequest{
				Kind: "batch", CL: p.cl, Shrink: p.shrink, Count: n,
				Seed: seed + uint64(next), Key: fmt.Sprintf("bench-%d-%d", seed, next),
			}
			next += n
			s := time.Now()
			resp, err := c.Submit(ctx, req)
			a := time.Now()
			if err != nil {
				if ctx.Err() != nil {
					return nil, 0, ctx.Err()
				}
				failed += n
				continue
			}
			ack.addDur(a.Sub(s))
			spans.add(track+" submit", "submit→ack", s, a, map[string]any{"ids": resp.IDs})
			t.ack(resp.IDs, s, a)
			acked = append(acked, resp.IDs...)
			inflight += len(resp.IDs)
		}
		if completions >= len(acked) && next >= p.jobs {
			return acked, failed, nil
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(completionTimeout)
		select {
		case <-t.done:
			completions++
			inflight--
		case <-timer.C:
			return acked, failed, nil
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
}

// roundStats turns a finished round's tracker into samples, and records the
// jobs that never completed as failures. dropped is the daemon's count of
// frames it dropped for a slow subscriber, reported with missing jobs.
func (t *tracker) roundStats(acked []int, dropped int64, acc *daemonAcc, spans *spanLog, track string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var first time.Time
	for _, id := range acked {
		if sent := t.sent[id]; first.IsZero() || sent.Before(first) {
			first = sent
		}
	}
	var lat samples
	var done []float64 // seconds since the round's first send
	missing := 0
	for _, id := range acked {
		sent := t.sent[id]
		end, ok := t.completed[id]
		if !ok {
			missing++
			continue
		}
		lat.addDur(end.Sub(sent))
		done = append(done, end.Sub(first).Seconds())
		if adm, ok := t.admitted[id]; ok {
			acc.admitWait.addDur(adm.Sub(t.acked[id]))
			spans.add(track+" job", "ack→admitted", t.acked[id], adm, map[string]any{"job": id})
			spans.add(track+" job", "admitted→completed", adm, end, map[string]any{"job": id})
		}
	}
	acc.failed += missing
	acc.frames += t.frames
	acc.delivery = append(acc.delivery, t.delivery...)
	if n := len(done); n > 0 {
		sort.Float64s(done)
		acc.latP50.add(lat.median())
		acc.latP99.add(lat.quantile(0.99))
		acc.roundRate.add(float64(n) / done[n-1])
		acc.completed += n
		acc.busy += time.Duration(done[n-1] * float64(time.Second))
		if q := n / 4; q > 1 {
			if lastQ := done[n-1] - done[n-q]; lastQ > 0 {
				acc.decay.add(done[q-1] / lastQ)
			}
		}
	}
	if missing > 0 {
		return fmt.Errorf("%d of %d acked jobs never completed (the daemon dropped %d frames for the subscriber)",
			missing, len(acked), dropped)
	}
	return nil
}

// emitProbe is the pair of subscribers that measure a daemon's own event
// fan-out: before is subscribed ahead of server.New, so it runs before the
// daemon's subscribers (SSE hub, history, traces, metrics) on every event,
// and after is subscribed once New returns, so it runs after them. The bus
// calls both synchronously on the daemon's driver goroutine.
type emitProbe struct {
	mark   time.Time // set by before, read by after
	fanout time.Duration
	events int

	mu        sync.Mutex
	completed map[int]time.Time // job → emission of its job_completed
}

func newEmitProbe() *emitProbe { return &emitProbe{completed: make(map[int]time.Time)} }

func (p *emitProbe) before(e obs.Event) {
	p.mark = time.Now()
	if e.Kind == obs.EvJobCompleted {
		p.mu.Lock()
		p.completed[e.Job] = p.mark
		p.mu.Unlock()
	}
}

func (p *emitProbe) after(obs.Event) {
	p.fanout += time.Since(p.mark)
	p.events++
}

// completedAt returns when job's completion event entered the bus. A nil
// probe knows nothing.
func (p *emitProbe) completedAt(job int) (time.Time, bool) {
	if p == nil {
		return time.Time{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	at, ok := p.completed[job]
	return at, ok
}

// daemonAcc accumulates one mode's rounds of a daemon workload.
type daemonAcc struct {
	rounds                       int
	setup, recover, heap         samples // per boot or round
	latP50, latP99               samples // per round, ms
	roundRate                    samples // per round: completions per second
	ack, admitWait               samples // per operation, ms
	delivery                     samples // per completion, µs
	decay                        samples
	attempted, failed, completed int
	busy                         time.Duration
	frames                       int
	fanout                       time.Duration
	fanEvents                    int
	retries                      int64
	prom                         promTotals
	journal                      journalTotals
	mallocs, gcCycles, gcPauseNs uint64
	checks                       *verdicts // shared by a run's untraced and traced rounds
}

// jobsPerS pools every round: completed jobs over the time they took.
func (a *daemonAcc) jobsPerS() float64 { return float64(a.completed) / a.busy.Seconds() }

// measurePhase brackets a round's measured phase with runtime statistics.
type measurePhase struct{ m runtime.MemStats }

func startPhase() measurePhase {
	var p measurePhase
	runtime.ReadMemStats(&p.m)
	return p
}

func (p measurePhase) end(a *daemonAcc) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs += m.Mallocs - p.m.Mallocs
	a.gcCycles += uint64(m.NumGC - p.m.NumGC)
	a.gcPauseNs += m.PauseTotalNs - p.m.PauseTotalNs
}

// report fills the end-to-end metrics: medians over rounds or boots, with
// timings divided by the host's typical slowdown.
func (a *daemonAcc) report(res *result, slow float64) {
	res.set("setup_s", a.setup.median()/slow, len(a.setup))
	res.set("jobs_per_s", a.roundRate.median()*slow, a.rounds)
	res.set("latency_p50_ms", a.latP50.median()/slow, a.completed)
	res.set("latency_p99_ms", a.latP99.median()/slow, a.completed)
	res.set("recover_s", a.recover.median()/slow, len(a.recover))
	res.set("heap_live_mb", a.heap.median(), len(a.heap))
}

// reportLayers fills the per-layer metrics from traced rounds. Ack latency
// and the Go runtime's counts come from the untraced rounds in plain, which
// the probes do not perturb.
func (a *daemonAcc) reportLayers(res *result, plain *daemonAcc) {
	res.set("client.ack_p50_ms", plain.ack.median(), len(plain.ack))
	handler := a.prom.handlerSec / a.prom.handlerN * 1e3
	res.set("server.submit_handler_ms", handler, int(a.prom.handlerN))
	res.set("client.submit_overhead_ms", a.ack.mean()-handler, len(a.ack))
	if len(a.admitWait) > 0 {
		res.set("server.admission_wait_p50_ms", a.admitWait.median(), len(a.admitWait))
	}
	if a.fanEvents > 0 {
		res.set("server.fanout_ns_per_event", float64(a.fanout.Nanoseconds())/float64(a.fanEvents), a.fanEvents)
	}
	if len(a.decay) > 0 {
		res.set("server.jobs_per_s_decay", a.decay.median(), len(a.decay))
	}
	if a.frames > 0 {
		res.set("sse.frames_per_job", float64(a.frames)/float64(a.completed), a.completed)
	}
	if len(a.delivery) > 0 {
		res.set("sse.delivery_p50_us", a.delivery.median(), len(a.delivery))
	}
	res.set("sse.dropped", a.prom.sseDropped, a.rounds)
	res.set("client.retries", float64(a.retries), a.attempted)
	if a.prom.appendN > 0 {
		res.set("journal.append_us", a.prom.appendSec/a.prom.appendN*1e6, int(a.prom.appendN))
	}
	jobs := float64(a.completed)
	res.set("journal.records_per_job", float64(a.journal.records)/jobs, a.completed)
	res.set("journal.bytes_per_job", float64(a.journal.bytes)/jobs, a.completed)
	res.set("journal.snapshot_bytes_last", a.journal.lastSnapshot.median(), len(a.journal.lastSnapshot))
	res.set("go.allocs_per_job", float64(plain.mallocs)/float64(plain.completed), plain.completed)
	res.set("go.gc_cycles", float64(plain.gcCycles)/float64(plain.rounds), plain.rounds)
	res.set("go.gc_pause_ms", float64(plain.gcPauseNs)/1e6/float64(plain.rounds), plain.rounds)
	res.set("trace.overhead_pct", overheadPct(plain.jobsPerS(), a.jobsPerS()), a.rounds)
}

// verdicts keeps the first failure of each named check across rounds.
type verdicts struct {
	names []string
	errs  map[string]error
}

func (v *verdicts) verify(name string, err error) {
	if v.errs == nil {
		v.errs = make(map[string]error)
	}
	if _, seen := v.errs[name]; !seen {
		v.names = append(v.names, name)
		v.errs[name] = err
	} else if v.errs[name] == nil {
		v.errs[name] = err
	}
}

func (v *verdicts) into(res *result) {
	for _, n := range v.names {
		res.verify(n, v.errs[n])
	}
}

// runRounds calls round until budget is spent (at least once).
func runRounds(ctx context.Context, budget time.Duration, acc *daemonAcc, round func(int) error) error {
	start := time.Now()
	for acc.rounds == 0 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := round(acc.rounds); err != nil {
			return err
		}
		acc.rounds++
	}
	return nil
}

// heapSince returns the live heap growth over base, in MiB.
func heapSince(base uint64) float64 {
	live, _ := heapAfterGC()
	return (float64(live) - float64(base)) / (1 << 20)
}

// --- /metrics -------------------------------------------------------------

// promTotals sums, across rounds, the daemon registry families the layer
// metrics read.
type promTotals struct {
	handlerSec, handlerN float64 // POST /api/v1/jobs handler time
	appendSec, appendN   float64
	sseDropped           float64
}

// scrape reads base's /metrics exposition and folds it into t.
func (t *promTotals) scrape(ctx context.Context, hc *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	lines, err := parseProm(resp.Body)
	if err != nil {
		return err
	}
	for _, l := range lines {
		switch l.name {
		case "abgd_http_request_seconds_sum":
			if l.labels["route"] == "/api/v1/jobs" {
				t.handlerSec += l.value
			}
		case "abgd_http_request_seconds_count":
			if l.labels["route"] == "/api/v1/jobs" {
				t.handlerN += l.value
			}
		case "abgd_journal_append_seconds_sum":
			t.appendSec += l.value
		case "abgd_journal_append_seconds_count":
			t.appendN += l.value
		}
	}
	return nil
}

// promLine is one sample line of a Prometheus text exposition.
type promLine struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the sample lines of a text exposition (format 0.0.4).
func parseProm(r io.Reader) ([]promLine, error) {
	var out []promLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		l := promLine{name: line[:sp], value: v, labels: map[string]string{}}
		if i := strings.IndexByte(l.name, '{'); i >= 0 {
			if l.labels, err = parseLabels(l.name[i+1 : len(l.name)-1]); err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			l.name = l.name[:i]
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// parseLabels parses `k="v",k2="v2"` with the exposition's escapes.
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad labels %q", s)
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
	}
	return out, nil
}

// --- journals -------------------------------------------------------------

// journalTotals sums what a post-run scan of the journals shows.
type journalTotals struct {
	records      int
	bytes        int64
	lastSnapshot samples // per round: the last snapshot record's size
}

// scanJournal folds the journal in dir into t.
func (t *journalTotals) scanJournal(dir string) error {
	scan, err := persist.ScanFile(filepath.Join(dir, persist.JournalFile))
	if err != nil {
		return err
	}
	t.records += len(scan.Records)
	t.bytes += scan.CleanLen
	last := 0
	for _, r := range scan.Records {
		if r.Kind == persist.KindSnapshot {
			last = len(r.Body)
		}
	}
	t.lastSnapshot.add(float64(last))
	return nil
}

// checkReference replays dir's journal offline (server.ReferenceResult)
// and compares it with the jobs the daemon reported.
func checkReference(dir string, live []server.JobStatusDTO) error {
	ref, err := server.ReferenceResult(dir)
	if err != nil {
		return err
	}
	if len(ref) != len(live) {
		return fmt.Errorf("replay has %d jobs, the daemon %d", len(ref), len(live))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], live[i]) {
			return fmt.Errorf("job %d diverged from the journal replay:\n live %+v\n ref  %+v",
				i, live[i], ref[i])
		}
	}
	return nil
}

// timeRecover boots a daemon three times on a drained journal, the way a
// restart recovers, and records each boot's time.
func timeRecover(acc *daemonAcc, boot func() error) error {
	for range 3 {
		s := time.Now()
		if err := boot(); err != nil {
			return err
		}
		acc.recover.add(time.Since(s).Seconds())
	}
	return nil
}

// removeAll deletes a round's journals, reporting failures on stderr: a
// leftover journal is disk space, not a wrong measurement.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}
