// Package replica is the journal-shipping transport of the replication
// layer: the follower-side tailer that streams a leader's write-ahead
// journal over HTTP, CRC-checks it record by record, and hands each record
// to an applier.
//
// The design leans entirely on two properties the lower layers already
// guarantee. First, the journal is the daemon's complete op log (every
// state transition is a journaled record or a deterministic consequence of
// one — see internal/persist and the server's step records), so replication
// is nothing more than shipping raw journal bytes: a follower that has
// applied the first N bytes holds exactly the state the leader held when
// its journal was N bytes long. Second, the byte stream is self-validating
// (length-prefixed, CRC32-C per record), so the transport needs no framing
// of its own — reconnects resume at the follower's applied byte offset and
// the scanner rejects any corruption or mis-resume as a hard error.
//
// The tailer retries transport failures with the same exponential
// backoff + jitter machinery the hardened API client uses (Backoff is
// shared with server.Client) and distinguishes them from fatal conditions
// (corrupt stream, divergent offset, apply failure). It never decides that
// the leader is dead: a groupless follower is promoted by an operator, and
// in a -group the failover supervisor (internal/failover) judges the
// leader and re-points the tailer with SetLeader.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abg/internal/obs"
	"abg/internal/persist"
)

// Applier consumes the shipped journal. The server's follower role
// implements it: append the record to the local journal, then apply it to
// the local engine.
type Applier interface {
	// Offset is the follower's applied position: the absolute journal byte
	// offset to resume streaming from.
	Offset() int64
	// Apply applies one shipped record. An error is fatal to replication —
	// a follower that cannot apply must wedge loudly, never serve state it
	// knows has diverged.
	Apply(rec persist.Record) error
}

// Backoff returns the jittered exponential delay before retry attempt
// (0-based), clamped to [base, max] and at least floor. Full jitter over
// [d/2, d) keeps retry storms from synchronising while preserving the
// exponential envelope. Shared by server.Client and the journal tailer so
// every reconnect path in the system backs off identically.
func Backoff(base, max time.Duration, attempt int, floor time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	d = d/2 + time.Duration(mrand.Int63n(int64(d/2)+1))
	if d < floor {
		d = floor
	}
	return d
}

// JournalPath is the leader route the tailer streams from.
const JournalPath = "/api/v1/journal"

// SizeHeader is the response header carrying the leader's journal size (its
// replication high-water mark) at stream start.
const SizeHeader = "X-Abg-Journal-Size"

// Status is a point-in-time snapshot of the tailer, served by the
// follower's /api/v1/replication.
type Status struct {
	// Leader is the base URL currently tailed.
	Leader string `json:"leader"`
	// Connected reports a live stream right now.
	Connected bool `json:"connected"`
	// LeaderBytes is the highest leader journal size observed (stream-start
	// header, then advanced as bytes apply); the follower's byte lag is
	// LeaderBytes - applied offset.
	LeaderBytes int64 `json:"leaderBytes"`
	// Reconnects counts re-established streams (first connect excluded).
	Reconnects int64 `json:"reconnects"`
	// LastContactUnixNano is the wall time of the last byte received (or
	// successful connect), zero before the first contact.
	LastContactUnixNano int64 `json:"lastContactUnixNano"`
	// LastRecordUnixNano is the wall time of the last record-boundary
	// progress — a whole record applied — zero before the first. Connects
	// and partial bytes do not advance it; it is the only signal that resets
	// the reconnect backoff ladder.
	LastRecordUnixNano int64 `json:"lastRecordUnixNano"`
}

// Tailer streams a leader's journal into an Applier until stopped.
type Tailer struct {
	// HTTP is the transport client; per-attempt cancellation comes from the
	// run context, so its Timeout must stay zero (streams are long-lived).
	HTTP *http.Client
	// BaseDelay and MaxDelay shape the reconnect backoff.
	BaseDelay, MaxDelay time.Duration
	// StopOnEOF, when set, is consulted after the leader closes a stream
	// cleanly (EOF — its end-of-drain, not a dropped connection). Returning
	// true ends Run without error: the journal has been shipped in full and
	// there is nothing left to tail. Returning false reconnects as usual.
	StopOnEOF func() bool

	apply Applier
	log   interface{ Info(msg string, args ...any) }

	mu       sync.Mutex
	leader   string
	cancel   context.CancelFunc // cancels the in-flight stream attempt
	stopped  bool
	stopCh   chan struct{} // closed by Stop: interrupts backoff sleeps too
	retarget bool          // leader changed; current failure streak is stale

	connected   atomic.Bool
	leaderBytes atomic.Int64
	reconnects  atomic.Int64
	lastContact atomic.Int64
	lastRecord  atomic.Int64
}

// NewTailer returns a tailer streaming leader's journal into apply.
func NewTailer(leader string, apply Applier) *Tailer {
	if !strings.Contains(leader, "://") {
		leader = "http://" + leader
	}
	return &Tailer{
		HTTP:      &http.Client{},
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  2 * time.Second,
		apply:     apply,
		leader:    strings.TrimRight(leader, "/"),
		stopCh:    make(chan struct{}),
		log:       obs.Component("replica"),
	}
}

// Leader returns the base URL currently tailed.
func (t *Tailer) Leader() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leader
}

// SetLeader retargets the tailer to a new leader base URL (after a
// failover, the surviving followers re-point at the promoted one). The
// in-flight stream is cancelled; the next connect resumes from the applied
// offset against the new leader — valid because every follower's journal is
// a byte prefix of the journal the new leader carries forward.
func (t *Tailer) SetLeader(leader string) {
	if !strings.Contains(leader, "://") {
		leader = "http://" + leader
	}
	t.mu.Lock()
	t.leader = strings.TrimRight(leader, "/")
	t.retarget = true
	cancel := t.cancel
	t.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stop ends Run promptly (used at shutdown and by promotion): the in-flight
// stream attempt is cancelled and any backoff sleep interrupted. Idempotent.
func (t *Tailer) Stop() {
	t.mu.Lock()
	cancel := t.cancel
	if !t.stopped {
		t.stopped = true
		close(t.stopCh)
	}
	t.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Status snapshots the tailer's replication position.
func (t *Tailer) Status() Status {
	return Status{
		Leader:              t.Leader(),
		Connected:           t.connected.Load(),
		LeaderBytes:         t.leaderBytes.Load(),
		Reconnects:          t.reconnects.Load(),
		LastContactUnixNano: t.lastContact.Load(),
		LastRecordUnixNano:  t.lastRecord.Load(),
	}
}

// fatalErr marks conditions no reconnect can heal: a corrupt stream, an
// offset the leader does not have, or an apply failure.
type fatalErr struct{ err error }

func (e *fatalErr) Error() string { return e.err.Error() }
func (e *fatalErr) Unwrap() error { return e.err }

// Fatal wraps err as non-retryable for the tailer (used by Applier
// implementations to distinguish divergence from transient trouble).
func Fatal(err error) error { return &fatalErr{err: err} }

// Run tails the leader until Stop, ctx cancellation, StopOnEOF, or a fatal
// replication error (returned). Transport failures reconnect with backoff,
// resuming at the applied offset; the CRC check across the resume makes a
// bad rejoin loud.
func (t *Tailer) Run(ctx context.Context) error {
	streak := 0 // consecutive failures against the current leader
	for {
		t.mu.Lock()
		if t.stopped {
			t.mu.Unlock()
			return nil
		}
		if t.retarget {
			t.retarget = false
			streak = 0
		}
		actx, cancel := context.WithCancel(ctx)
		t.cancel = cancel
		t.mu.Unlock()

		madeProgress, err := t.streamOnce(actx)
		cancel()
		t.connected.Store(false)
		if ctx.Err() != nil {
			return nil
		}
		t.mu.Lock()
		stopped := t.stopped
		t.mu.Unlock()
		if stopped {
			return nil
		}
		var fe *fatalErr
		if errors.As(err, &fe) {
			return fmt.Errorf("replica: %w", fe.err)
		}
		if errors.Is(err, io.EOF) && t.StopOnEOF != nil && t.StopOnEOF() {
			t.log.Info("leader drained, journal fully shipped", "leader", t.Leader())
			return nil
		}
		if madeProgress {
			streak = 0
		}
		delay := Backoff(t.BaseDelay, t.MaxDelay, streak, 0)
		streak++
		select {
		case <-time.After(delay):
		case <-t.stopCh:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

// streamOnce is one streaming connection: resume at the applied offset,
// feed arriving chunks through the CRC-checking scanner, apply each whole
// record. Returns whether any *whole record* was applied and the terminating
// error. Record-boundary progress is the only kind that counts: a successful
// connect, an empty 200, or a trickle of bytes that never completes a record
// all return progress=false, so the caller's backoff ladder keeps growing —
// a leader that accepts connections but ships nothing must look exactly as
// dead as one that refuses them.
func (t *Tailer) streamOnce(ctx context.Context) (bool, error) {
	from := t.apply.Offset()
	url := fmt.Sprintf("%s%s?from=%d", t.Leader(), JournalPath, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, &fatalErr{err}
	}
	resp, err := t.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusNotFound, http.StatusBadRequest:
		// The leader explicitly cannot serve this offset: we are ahead of
		// its journal (divergent history — promoting the shorter journal
		// after a failover?) or it has no journal at all. Reconnecting
		// cannot fix a wrong history; wedge loudly instead of serving it.
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, &fatalErr{fmt.Errorf("leader rejected offset %d: status %d: %s",
			from, resp.StatusCode, strings.TrimSpace(string(raw)))}
	default:
		return false, fmt.Errorf("journal stream: status %d", resp.StatusCode)
	}
	if s := resp.Header.Get(SizeHeader); s != "" {
		var size int64
		if _, err := fmt.Sscanf(s, "%d", &size); err == nil && size > t.leaderBytes.Load() {
			t.leaderBytes.Store(size)
		}
	}
	t.connected.Store(true)
	t.lastContact.Store(time.Now().UnixNano())
	if t.reconnects.Load() == 0 {
		t.log.Info("journal stream connected", "leader", t.Leader(), "from", from)
	}
	t.reconnects.Add(1)

	sc := persist.NewStreamScanner(from)
	buf := make([]byte, 32*1024)
	progress := false
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			t.lastContact.Store(time.Now().UnixNano())
			sc.Feed(buf[:n])
			for {
				rec, ok, serr := sc.Next()
				if serr != nil {
					return progress, &fatalErr{serr}
				}
				if !ok {
					break
				}
				if aerr := t.apply.Apply(rec); aerr != nil {
					return progress, &fatalErr{fmt.Errorf("apply %s record at offset %d: %w",
						persist.KindName(rec.Kind), sc.Offset(), aerr)}
				}
				progress = true
				t.lastRecord.Store(time.Now().UnixNano())
				if off := sc.Offset(); off > t.leaderBytes.Load() {
					t.leaderBytes.Store(off)
				}
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				// Leader closed the stream (drain, shutdown). The caller
				// reconnects until the leader returns, StopOnEOF ends the
				// run, or a supervisor re-points the tailer.
				return progress, io.EOF
			}
			return progress, rerr
		}
	}
}
