package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"abg/internal/replica"
)

// Client is a hardened HTTP client for the abgd API, shared by abgload and
// the crash-soak harness. Every request runs under its own deadline and is
// retried with exponential backoff plus jitter when the daemon answers 429
// or 5xx, or when the connection fails outright (refused, reset, died
// mid-response) — the shapes a crash-restarting daemon produces. A 429's
// Retry-After header, when present, becomes the floor of the next backoff.
//
// Submissions are made idempotent by a client-generated key: if the caller
// did not set JobRequest.Key, Submit generates one, so a retry after an
// ambiguous failure (request sent, ack lost, daemon crashed) can never
// double-admit — the recovered daemon answers the retry with the original
// ids and State "duplicate". A draining daemon answers a keyed retry of an
// acked submission the same way; only new work gets 503 once it drains.
//
// With Group set, the client is failover-transparent: writes go to the
// discovered leader (the reachable, unfenced member with the highest epoch)
// and re-discover across a failover; reads rotate over every member. The
// client remembers the highest epoch any response carried and refuses a
// write ack from a lower one — an ack a deposed leader's journal cannot
// keep — retrying it against the real leader instead (safe: submissions are
// idempotent). Write acks carry a journal commit offset, and reads demand
// it back (X-Abg-Min-Offset), so a read served by a lagging follower waits
// for this client's own writes to apply: read-your-writes across the group.
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:7133".
	Base string
	// HTTP is the underlying transport client. Its Timeout is ignored;
	// per-request deadlines come from Timeout below.
	HTTP *http.Client
	// MaxAttempts bounds tries per request (first attempt included).
	MaxAttempts int
	// BaseDelay and MaxDelay shape the exponential backoff.
	BaseDelay, MaxDelay time.Duration
	// Timeout is the per-request (per-attempt) deadline.
	Timeout time.Duration
	// Group lists the other replication-group members (Base's peers).
	// Writes then target the discovered leader, wherever it currently is;
	// reads rotate over Base and Group when an attempt fails at the
	// transport level or with a 5xx.
	Group []string

	// Counters, readable concurrently while requests are in flight.
	Retried429       atomic.Int64 // attempts retried after a 429
	RetriedTransport atomic.Int64 // attempts retried after 5xx / connection failure
	DeadlineExceeded atomic.Int64 // attempts abandoned at the per-request deadline
	Reconnects       atomic.Int64 // SSE stream reconnections
	ReadRetargets    atomic.Int64 // reads failed over to another endpoint
	Failovers        atomic.Int64 // leader re-discoveries that changed the target
	FencedWrites     atomic.Int64 // write answers refused as fenced or stale-epoch

	leader     atomic.Value  // string: cached leader URL, cleared to re-discover
	lastLeader atomic.Value  // string: last leader ever discovered (never cleared)
	maxEpoch   atomic.Uint32 // highest epoch any response carried
	minOffset  atomic.Int64  // commit-offset high-water of this client's writes
}

// NewClient returns a Client with production defaults against base
// (scheme optional; "host:port" is promoted to http).
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		Base:        strings.TrimRight(base, "/"),
		HTTP:        &http.Client{},
		MaxAttempts: 10,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Timeout:     10 * time.Second,
	}
}

// APIError is a non-retryable HTTP error answer from the daemon.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("abgd: status %d: %s", e.Status, e.Message)
}

// NewKey returns a fresh idempotency key for JobRequest.Key.
func NewKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; fall back to math/rand rather
		// than panicking a load generator.
		return fmt.Sprintf("k-%08x%08x", mrand.Uint32(), mrand.Uint32())
	}
	return hex.EncodeToString(b[:])
}

// retryable classifies one attempt's outcome. resp is nil on transport
// errors. floor is a server-requested minimum backoff (Retry-After).
func retryable(resp *http.Response, err error) (retry bool, floor time.Duration) {
	if err != nil {
		// Connection refused/reset, EOF mid-response, attempt deadline:
		// all shapes of "the daemon is (re)starting" — worth retrying.
		return true, 0
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode >= 500:
		// 429 is backpressure; 503 may be an unconfirmed leader or a
		// replica's bounded read-wait timing out — both set Retry-After.
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
				floor = time.Duration(secs) * time.Second
			}
		}
		return true, floor
	}
	return false, 0
}

// backoff returns the jittered delay before attempt (0-based counts the
// retries already taken), at least floor. The machinery is shared with the
// replication tailer (replica.Backoff) so every reconnect path in the
// system backs off identically.
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	return replica.Backoff(c.BaseDelay, c.MaxDelay, attempt, floor)
}

// members returns the read-rotation set: Base first, then Group (each
// normalized like Base, duplicates of Base dropped).
func (c *Client) members() []string {
	eps := make([]string, 0, 1+len(c.Group))
	eps = append(eps, c.Base)
	for _, f := range c.Group {
		if !strings.Contains(f, "://") {
			f = "http://" + f
		}
		f = strings.TrimRight(f, "/")
		if f != c.Base {
			eps = append(eps, f)
		}
	}
	return eps
}

// grouped reports whether group discovery is on.
func (c *Client) grouped() bool { return len(c.Group) > 0 }

// currentLeader returns the last discovered leader URL ("" before the
// first discovery).
func (c *Client) currentLeader() string {
	s, _ := c.leader.Load().(string)
	return s
}

// noteEpoch folds a response's epoch into the high-water mark.
func (c *Client) noteEpoch(e uint32) {
	for {
		cur := c.maxEpoch.Load()
		if e <= cur || c.maxEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// noteOffset folds a write ack's commit offset into the high-water mark
// that subsequent reads demand back.
func (c *Client) noteOffset(off int64) {
	for {
		cur := c.minOffset.Load()
		if off <= cur || c.minOffset.CompareAndSwap(cur, off) {
			return
		}
	}
}

// setLeader records a discovered leader, counting the change-overs. The
// comparison runs against the last leader ever discovered, not the cached
// one: a kill clears the cache before re-discovery, and that cycle is
// exactly the failover the counter exists to report.
func (c *Client) setLeader(url string) {
	if prev, _ := c.lastLeader.Load().(string); prev != "" && prev != url {
		c.Failovers.Add(1)
	}
	c.lastLeader.Store(url)
	c.leader.Store(url)
}

// discoverLeader probes every member's /api/v1/replication and picks the
// reachable, unfenced leader with the highest epoch. Members are dialed by
// their configured URL (the one provably reachable from here), not the
// advertised one.
func (c *Client) discoverLeader(ctx context.Context) (string, error) {
	var best string
	var bestEpoch uint32
	found := false
	for _, m := range c.members() {
		dto, err := c.replicationOf(ctx, m)
		if err != nil {
			continue
		}
		c.noteEpoch(dto.Epoch)
		c.noteEpoch(dto.PromisedEpoch)
		if dto.Fenced || dto.Role != "leader" {
			continue
		}
		if !found || dto.Epoch > bestEpoch {
			best, bestEpoch, found = m, dto.Epoch, true
		}
	}
	if !found {
		return "", fmt.Errorf("no reachable leader among %s", strings.Join(c.members(), ", "))
	}
	c.setLeader(best)
	return best, nil
}

// replicationOf reads one member's replication status (single attempt).
func (c *Client) replicationOf(ctx context.Context, base string) (ReplicationDTO, error) {
	timeout := c.Timeout
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var dto ReplicationDTO
	req, err := http.NewRequestWithContext(actx, http.MethodGet, base+"/api/v1/replication", nil)
	if err != nil {
		return dto, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return dto, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return dto, fmt.Errorf("replication probe: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		return dto, err
	}
	return dto, nil
}

// do runs one API request with retries. body non-nil implies POST with a
// JSON payload. hdr, when non-nil, is added to every attempt (so a retried
// request carries the same trace id). out, when non-nil, receives the
// decoded success body. ok lists the statuses accepted as success
// (default 200).
func (c *Client) do(ctx context.Context, method, path string, body []byte, hdr map[string]string, out any, ok ...int) (int, error) {
	if len(ok) == 0 {
		ok = []int{http.StatusOK}
	}
	isWrite := method != http.MethodGet
	eps := c.members()
	epIdx := 0
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Reads fail over: a transport failure or 5xx means this
			// endpoint may be dead (a killed leader), so the retry targets
			// the next one. 429 is backpressure from a live daemon — same
			// endpoint, honor its Retry-After instead.
			floor, _ := lastErr.(*retryAfterErr)
			var fd time.Duration
			if floor != nil {
				fd = floor.floor
			}
			if !isWrite && len(eps) > 1 && (floor == nil || floor.status >= 500) {
				epIdx = (epIdx + 1) % len(eps)
				c.ReadRetargets.Add(1)
			}
			select {
			case <-time.After(c.backoff(attempt-1, fd)):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		target := eps[epIdx]
		if isWrite && c.grouped() {
			// Writes chase the leader. A fenced/stale answer or a transport
			// failure on the previous attempt cleared the cached leader, so
			// re-discover; when discovery finds nothing reachable yet
			// (mid-election), fall back to the rotation and let the next
			// attempt try again.
			if lead := c.currentLeader(); lead != "" {
				target = lead
			} else if lead, err := c.discoverLeader(ctx); err == nil {
				target = lead
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.Timeout)
		status, err := c.attempt(actx, target, method, path, body, hdr, out, ok)
		cancel()
		if err == nil {
			return status, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			return status, err // non-retryable answer
		}
		if ctx.Err() != nil {
			return 0, ctx.Err() // caller's deadline, not ours
		}
		if errors.Is(err, context.DeadlineExceeded) {
			c.DeadlineExceeded.Add(1)
		}
		var stale *staleLeaderErr
		var ra *retryAfterErr
		switch {
		case errors.As(err, &stale):
			// The target is fenced or behind the epochs this client has
			// seen. If its 409 named the winner, go straight there;
			// otherwise re-discover on the next attempt.
			c.FencedWrites.Add(1)
			if stale.winner != "" {
				c.setLeader(strings.TrimRight(stale.winner, "/"))
			} else {
				c.leader.Store("")
			}
		case errors.As(err, &ra):
			if ra.status == http.StatusTooManyRequests {
				c.Retried429.Add(1)
			} else {
				c.RetriedTransport.Add(1)
				if isWrite {
					c.leader.Store("") // the leader answered 5xx; re-discover
				}
			}
		default:
			c.RetriedTransport.Add(1)
			if isWrite {
				c.leader.Store("") // the leader is unreachable; re-discover
			}
		}
		lastErr = err
	}
	return 0, fmt.Errorf("%s %s: giving up after %d attempts: %w", method, path, c.MaxAttempts, lastErr)
}

// retryAfterErr marks a retryable status answer, carrying the server's
// Retry-After floor for the next backoff.
type retryAfterErr struct {
	status int
	floor  time.Duration
}

func (e *retryAfterErr) Error() string {
	return fmt.Sprintf("status %d (retry-after %s)", e.status, e.floor)
}

// staleLeaderErr marks a write answered by a daemon that provably is not
// (or is no longer) the leader: a fenced/stale-leader 409, or a success ack
// under an epoch below the client's high-water mark. Retryable — against
// the winner it names, when it names one.
type staleLeaderErr struct {
	status int
	winner string
	msg    string
}

func (e *staleLeaderErr) Error() string {
	msg := fmt.Sprintf("stale leader (status %d): %s", e.status, e.msg)
	if e.winner != "" {
		msg += "; leadership moved to " + e.winner
	}
	return msg
}

// readYourWrites reports whether a GET path carries the min-offset demand.
// Only job and state reads observe submissions; metrics/health/replication
// probes must answer even on a lagging replica.
func readYourWrites(path string) bool {
	return path == "/api/v1/state" || strings.HasPrefix(path, "/api/v1/jobs")
}

// attempt is a single request/response cycle against one endpoint.
func (c *Client) attempt(ctx context.Context, base, method, path string, body []byte, hdr map[string]string, out any, ok []int) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	isWrite := method != http.MethodGet
	if isWrite && c.grouped() {
		// Prove the newest leadership this client has witnessed: a leader
		// behind this epoch must reject the write instead of acking into a
		// journal history that has already been superseded.
		if e := c.maxEpoch.Load(); e > 0 {
			req.Header.Set(EpochHeader, strconv.FormatUint(uint64(e), 10))
		}
	}
	if !isWrite && readYourWrites(path) {
		if off := c.minOffset.Load(); off > 0 {
			req.Header.Set(MinOffsetHeader, strconv.FormatInt(off, 10))
		}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	respEpoch := uint32(0)
	if s := resp.Header.Get(EpochHeader); s != "" {
		if v, perr := strconv.ParseUint(s, 10, 32); perr == nil {
			respEpoch = uint32(v)
		}
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err // died mid-response: retryable transport failure
	}
	for _, s := range ok {
		if resp.StatusCode == s {
			if isWrite && c.grouped() && respEpoch > 0 && respEpoch < c.maxEpoch.Load() {
				// An ack from a leadership term this client has already seen
				// superseded: the acking daemon is deposed (or about to be)
				// and its journal suffix will not survive the failover. The
				// idempotency key makes the retry safe.
				return resp.StatusCode, &staleLeaderErr{
					status: resp.StatusCode,
					msg: fmt.Sprintf("ack under epoch %d, but epoch %d exists",
						respEpoch, c.maxEpoch.Load()),
				}
			}
			c.noteEpoch(respEpoch)
			if out != nil {
				if err := json.Unmarshal(raw, out); err != nil {
					return resp.StatusCode, fmt.Errorf("%s %s: corrupt body %q: %w", method, path, raw, err)
				}
			}
			return resp.StatusCode, nil
		}
	}
	c.noteEpoch(respEpoch)
	msg := strings.TrimSpace(string(raw))
	var e ErrorDTO
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if isWrite && c.grouped() && resp.StatusCode == http.StatusConflict &&
		(strings.Contains(msg, "fenced") || strings.Contains(msg, "stale leader")) {
		return resp.StatusCode, &staleLeaderErr{
			status: resp.StatusCode,
			winner: resp.Header.Get(WinnerHeader),
			msg:    msg,
		}
	}
	if retry, floor := retryable(resp, nil); retry {
		return resp.StatusCode, &retryAfterErr{status: resp.StatusCode, floor: floor}
	}
	return resp.StatusCode, &APIError{Status: resp.StatusCode, Message: msg}
}

// Submit posts one job request. A missing idempotency key is generated so
// retries are safe; the returned response's State distinguishes a fresh
// acceptance ("queued") from a replayed one ("duplicate"). Every submission
// carries a client-generated trace id (stable across the retries of one
// call) in the X-Abg-Trace-Id header; the ack echoes it, and the daemon's
// end-to-end trace is then readable at /api/v1/traces/{traceId}.
func (c *Client) Submit(ctx context.Context, req JobRequest) (SubmitResponse, error) {
	if req.Key == "" {
		req.Key = NewKey()
	}
	traceID := NewKey()
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	var ack SubmitResponse
	_, err = c.do(ctx, http.MethodPost, "/api/v1/jobs", body,
		map[string]string{TraceHeader: traceID}, &ack,
		http.StatusAccepted, http.StatusOK)
	if err != nil {
		return SubmitResponse{}, err
	}
	if len(ack.IDs) == 0 {
		return ack, fmt.Errorf("submit: ack carries no ids")
	}
	// Remember the commit offset: subsequent reads demand it back, so any
	// member answering them must have applied this write first.
	c.noteOffset(ack.Offset)
	return ack, nil
}

// JobStatus fetches one job's live status.
func (c *Client) JobStatus(ctx context.Context, id int) (JobStatusDTO, error) {
	var st JobStatusDTO
	_, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d", id), nil, nil, &st)
	return st, err
}

// Jobs fetches every known job's status.
func (c *Client) Jobs(ctx context.Context) ([]JobStatusDTO, error) {
	var sts []JobStatusDTO
	_, err := c.do(ctx, http.MethodGet, "/api/v1/jobs", nil, nil, &sts)
	return sts, err
}

// State fetches the scheduler-wide snapshot.
func (c *Client) State(ctx context.Context) (StateDTO, error) {
	var st StateDTO
	_, err := c.do(ctx, http.MethodGet, "/api/v1/state", nil, nil, &st)
	return st, err
}

// Recovery fetches the boot-time recovery report.
func (c *Client) Recovery(ctx context.Context) (RecoveryDTO, error) {
	var rec RecoveryDTO
	_, err := c.do(ctx, http.MethodGet, "/api/v1/recovery", nil, nil, &rec)
	return rec, err
}

// Timeline fetches one job's bounded per-quantum timeline.
func (c *Client) Timeline(ctx context.Context, id int) (TimelineDTO, error) {
	var tl TimelineDTO
	_, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d/timeline", id), nil, nil, &tl)
	return tl, err
}

// Trace fetches one submission trace by the id Submit generated.
func (c *Client) Trace(ctx context.Context, id string) (TraceDTO, error) {
	var tr TraceDTO
	_, err := c.do(ctx, http.MethodGet, "/api/v1/traces/"+id, nil, nil, &tr)
	return tr, err
}

// Drain asks the daemon to drain; wait blocks until the drain completes.
func (c *Client) Drain(ctx context.Context, wait bool) error {
	path := "/api/v1/drain"
	if wait {
		path += "?wait=1"
	}
	// A drain can legitimately outlast the per-request deadline; the wait
	// variant runs without retries under the caller's context alone.
	if wait {
		target := c.Base
		if c.grouped() {
			if lead := c.currentLeader(); lead != "" {
				target = lead
			} else if lead, err := c.discoverLeader(ctx); err == nil {
				target = lead
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+path, nil)
		if err != nil {
			return err
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("drain: status %d", resp.StatusCode)
		}
		return nil
	}
	_, err := c.do(ctx, http.MethodPost, path, []byte("{}"), nil, nil,
		http.StatusOK, http.StatusAccepted)
	return err
}

// Health probes /healthz once (no retries): the crash harness uses it to
// detect daemon liveness transitions.
func (c *Client) Health(ctx context.Context) error {
	actx, cancel := context.WithTimeout(ctx, c.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// SSEEvent is one frame from the event stream. ID is the numeric event id a
// single daemon assigns; against a multi-shard cluster front end, ids are
// per-shard vectors ("12,9,3") that do not fit a scalar — ID is then zero
// and RawID carries the wire form. RawID is always set.
type SSEEvent struct {
	ID    uint64
	RawID string
	Type  string // "" for data events, "resync" when the replay ring evicted us
	Data  []byte
}

// ErrStopStream, returned by a StreamEvents callback, ends the stream
// without error.
var ErrStopStream = errors.New("stop event stream")

// StreamEvents subscribes to /api/v1/events after event id afterID and
// calls fn for every frame. On disconnect it backs off and reconnects with
// Last-Event-ID set to the last id seen, so the daemon's replay ring fills
// any gap; a "resync" frame tells fn the gap was unrecoverable and absolute
// state must be refetched (the stream then continues from the frame's id).
// Returns when ctx ends, fn returns ErrStopStream (nil) or another error
// (propagated), or reconnection attempts are exhausted.
func (c *Client) StreamEvents(ctx context.Context, afterID uint64, fn func(SSEEvent) error) error {
	last := ""
	if afterID > 0 {
		last = strconv.FormatUint(afterID, 10)
	}
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := c.streamOnce(ctx, &last, fn)
		if errors.Is(err, ErrStopStream) {
			return nil
		}
		if err != nil && ctx.Err() == nil {
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				return err
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if n > 0 {
			failures = 0 // progress: reset the backoff ladder
		}
		failures++
		if failures > c.MaxAttempts {
			return fmt.Errorf("event stream: giving up after %d reconnects: %w", failures-1, err)
		}
		c.Reconnects.Add(1)
		select {
		case <-time.After(c.backoff(failures-1, 0)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// streamOnce is one SSE connection: subscribe after *last, dispatch frames,
// and keep *last current so the caller can resume. Returns the number of
// frames dispatched. Lines are read in place from the scanner's buffer, so
// a frame allocates only the RawID, Type and Data it hands to fn.
func (c *Client) streamOnce(ctx context.Context, last *string, fn func(SSEEvent) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/api/v1/events", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *last != "" {
		req.Header.Set("Last-Event-ID", *last)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return 0, &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}

	n := 0
	var ev SSEEvent
	var haveData bool
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if haveData || ev.Type != "" {
				if ev.RawID != "" {
					*last = ev.RawID
				}
				n++
				if err := fn(ev); err != nil {
					return n, err
				}
			}
			ev, haveData = SSEEvent{}, false
		case bytes.HasPrefix(line, []byte("id: ")):
			ev.RawID = string(line[4:])
			// Scalar ids (single daemon, one-shard cluster) also populate
			// ID; vector ids from a multi-shard cluster stay RawID-only.
			if id, perr := strconv.ParseUint(ev.RawID, 10, 64); perr == nil {
				ev.ID = id
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.Type = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")):
			ev.Data = append(ev.Data, line[6:]...)
			haveData = true
		case bytes.HasPrefix(line, []byte(":")), bytes.HasPrefix(line, []byte("retry: ")):
			// comments and reconnect hints carry no payload
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, io.EOF // server closed the stream (drain)
}
