package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"

	"abg/internal/failover"
	"abg/internal/persist"
	"abg/internal/replica"
)

// Replication. The write-ahead journal is the daemon's complete op log
// (header, submits, admits, steps, drain, snapshots — see journal.go), and
// the engine is bit-identically replay-deterministic, so replication is
// journal shipping: a leader streams its journal file's bytes; a follower
// appends each shipped record to its own journal (keeping its file a byte
// prefix of the leader's) and applies it to its own engine through
// applyLocked, the applier boot recovery replays its journal tail with.
// Follower state is therefore a pure function of its applied byte offset —
// at equal offsets, leader and follower hold identical engines, identical
// job results, and identical SSE event ids, which is what lets followers
// serve reads (/state, job status, /metrics, /api/v1/events) and re-serve
// the event stream to their own subscribers while the leader takes only
// writes. Followers also serve /api/v1/journal themselves, so followers can
// chain off followers (a fan-out relay tier).
//
// Failover is promotion: a follower stops tailing and starts the quantum
// clock on the state it has applied — exactly the crash-recovery resume,
// so the promoted daemon provably continues the leader's run. Shipping is
// asynchronous, so the guarantee is exact-prefix: every record that reached
// the promoted follower is preserved with identical ids and results; an
// acknowledged-but-unshipped tail is lost, and idempotent client
// re-submission heals it (the same key regenerates the same jobs under
// fresh ids). The follower with the LONGEST applied journal must be the one
// promoted: every follower's journal is a byte prefix of the dead leader's,
// hence of each other's, so the longest one subsumes the rest and the
// shorter followers retarget at it.
//
// Promotion is fenced by leader epochs (see failover.go and
// internal/failover). Every journal record is framed under the epoch of the
// leader that wrote it; a promotion appends a KindEpoch record under the
// next epoch before the new leader resumes the clock. A replica applying
// shipped bytes rejects any record whose epoch is below its own — the
// durable, journal-level guarantee that a resurrected stale leader can
// never fork a survivor's history. With -group configured, promotion is
// automated: a per-node supervisor probes the group, detects leader death
// by quorum, elects the longest-prefix follower under a new epoch, and
// retargets the survivors — zero operator action.

// Role is a daemon's replication role.
type Role int32

const (
	// RoleLeader runs the quantum clock and takes writes. A daemon without
	// -follow is a leader from boot (replication needs -journal, but a
	// journal-less leader is still "leader": it simply has nothing to ship).
	RoleLeader Role = iota
	// RoleFollower tails a leader's journal and serves only reads; writes
	// are answered with a 307 to the leader.
	RoleFollower
)

func (r Role) String() string {
	if r == RoleFollower {
		return "follower"
	}
	return "leader"
}

// isFollower reports whether the daemon currently serves in follower role.
func (s *Server) isFollower() bool { return Role(s.role.Load()) == RoleFollower }

// replState is the applier's view of the records applied so far.
type replState struct {
	headerSeen bool
	applied    int64 // records applied since boot: the recovery tail, then the stream
}

// shippedApplier adapts the Server's follower role onto replica.Applier.
type shippedApplier struct{ s *Server }

func (a shippedApplier) Offset() int64 { return a.s.journal.Size() }

func (a shippedApplier) Apply(rec persist.Record) error { return a.s.applyShipped(rec) }

// applyShipped applies one shipped journal record: append it to the local
// journal first (identical bytes — the follower's file stays a verbatim
// prefix of the leader's), then apply it to the engine through applyLocked,
// the applier boot recovery also replays the journal tail with. Any
// inconsistency is fatal: a follower that cannot apply must wedge loudly,
// never serve state it knows is divergent.
func (s *Server) applyShipped(rec persist.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fatal != nil {
		return s.fatal
	}
	// Epoch fencing: shipped records never step backwards, and step forwards
	// only through an explicit epoch record. A lower epoch means the upstream
	// is a resurrected stale leader trying to fork history — nothing it ships
	// may ever reach this journal.
	cur := s.journal.Epoch()
	switch {
	case rec.Epoch < cur:
		err := fmt.Errorf("fenced: shipped %s record carries stale epoch %d, local epoch is %d",
			persist.KindName(rec.Kind), rec.Epoch, cur)
		s.failLocked(err)
		return err
	case rec.Epoch > cur && rec.Kind != persist.KindEpoch:
		err := fmt.Errorf("shipped %s record jumps to epoch %d without an epoch record (local epoch %d)",
			persist.KindName(rec.Kind), rec.Epoch, cur)
		s.failLocked(err)
		return err
	}
	// AppendRecord preserves the shipped framing epoch verbatim, keeping the
	// file a byte copy of the upstream journal.
	if err := s.journal.AppendRecord(rec); err != nil {
		s.failLocked(fmt.Errorf("replica journal append: %w", err))
		return err
	}
	if err := s.applyLocked(rec); err != nil {
		s.failLocked(fmt.Errorf("replica apply: %w", err))
		return err
	}
	return nil
}

// applyLocked turns one journal record, read back from disk or the wire,
// into daemon state. It is the only such reader: a follower runs it on
// every shipped record and boot recovery on every record after the
// restored snapshot. Caller holds s.mu.
func (s *Server) applyLocked(rec persist.Record) error {
	var err error
	switch rec.Kind {
	case persist.KindHeader:
		err = s.applyHeaderLocked(rec.Body)
	case persist.KindSubmit, persist.KindSubmitV1:
		err = s.applySubmitLocked(rec.Kind, rec.Body)
	case persist.KindAdmit:
		err = s.applyAdmitLocked(rec.Body)
	case persist.KindStep:
		err = s.applyStepLocked(rec.Body)
	case persist.KindSnapshot:
		err = s.applySnapshotLocked(rec.Body)
	case persist.KindDrain:
		s.draining.Store(true)
	case persist.KindEpoch:
		err = s.applyEpochLocked(rec)
	default:
		err = fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if err == nil {
		s.repl.applied++
	}
	return err
}

// applyEpochLocked applies a leadership change: the journal epoch already
// covers the record (AppendRecord raised it, or Open scanned it); mirror it
// into the served epoch so the API answers under the new term immediately.
func (s *Server) applyEpochLocked(rec persist.Record) error {
	ep, err := decodeEpoch(rec.Body)
	if err != nil {
		return err
	}
	if ep.epoch != rec.Epoch {
		return fmt.Errorf("epoch record body says %d, framing says %d", ep.epoch, rec.Epoch)
	}
	s.epoch.Store(ep.epoch)
	s.log.Info("applied leadership change", "epoch", ep.epoch, "leader", ep.leader)
	return nil
}

func (s *Server) applyHeaderLocked(body []byte) error {
	if s.repl.headerSeen {
		return fmt.Errorf("duplicate header record")
	}
	h, err := decodeHeader(body)
	if err != nil {
		return err
	}
	if want := s.headerRecord(); h != want {
		return fmt.Errorf("journal written under a different configuration:\n  journal: %+v\n  daemon:  %+v",
			h, want)
	}
	s.repl.headerSeen = true
	return nil
}

func (s *Server) applySubmitLocked(kind byte, body []byte) error {
	sub, err := decodeSubmit(kind, body)
	if err != nil {
		return err
	}
	if sub.firstID != s.nextID {
		return fmt.Errorf("submit ids start at %d, expected %d", sub.firstID, s.nextID)
	}
	s.enqueueLocked(sub.req, sub.req.profiles(s.cfg.L))
	return nil
}

func (s *Server) applyAdmitLocked(body []byte) error {
	adm, err := decodeAdmit(body)
	if err != nil {
		return err
	}
	// The writer admits its entire queue at a boundary, so the record's ids
	// must be exactly the queued jobs, in order.
	if len(adm.ids) != len(s.queue) {
		return fmt.Errorf("admit covers %d jobs, queue holds %d", len(adm.ids), len(s.queue))
	}
	for i, id := range adm.ids {
		if id != s.queue[i].id {
			return fmt.Errorf("admit id %d out of order (queue holds %d)", id, s.queue[i].id)
		}
	}
	if err := s.catchUpLocked(adm.boundary); err != nil {
		return err
	}
	return s.admitQueueLocked()
}

func (s *Server) applyStepLocked(body []byte) error {
	st, err := decodeStep(body)
	if err != nil {
		return err
	}
	if st.share >= 0 {
		// A cluster shard's record: the quantum must execute under the
		// writer's pinned share or the replay diverges.
		t, ok := s.capacity.(*ShareTable)
		if !ok {
			return fmt.Errorf("journal carries cluster capacity shares; boot it behind the cluster layer (abgd -cluster)")
		}
		t.Set(st.boundary+1, st.share)
	}
	if err := s.catchUpLocked(st.boundary); err != nil {
		return err
	}
	// Execute the recorded quantum, re-emitting the writer's events under
	// its SSE ids.
	if _, err := s.eng.Step(); err != nil {
		return fmt.Errorf("step boundary %d: %w", st.boundary, err)
	}
	return nil
}

// catchUpLocked steps the engine forward to boundary b, the boundary of the
// record being applied. The boundaries it crosses are ones the writer
// executed without a step record: idle boundaries, which the writer never
// journals, and working ones in journals written before step records
// existed or resumed after a recovery that executed an admitted quantum
// without journaling its step. A record behind the engine means the
// replica has diverged.
func (s *Server) catchUpLocked(b int) error {
	for s.eng.Boundary() < b {
		if _, err := s.eng.Step(); err != nil {
			return fmt.Errorf("boundary %d: %w", s.eng.Boundary(), err)
		}
	}
	if got := s.eng.Boundary(); got != b {
		return fmt.Errorf("diverged: record at boundary %d, engine at %d", b, got)
	}
	return nil
}

// applySnapshotLocked treats the leader's snapshot as a cross-check, not a
// restore: the follower already holds the state by construction, so the
// snapshot's coordinates must match exactly — a cheap, continuous proof
// that the replica has not diverged. (The engine blob is already in the
// follower's journal, a link in the chain its own boot recovery folds.)
func (s *Server) applySnapshotLocked(body []byte) error {
	snap, err := decodeSnapshot(body)
	if err != nil {
		return err
	}
	if snap.boundary != s.eng.Boundary() || snap.quanta != s.eng.QuantaElapsed() {
		return fmt.Errorf("diverged from leader: snapshot at boundary %d quanta %d, follower at %d/%d",
			snap.boundary, snap.quanta, s.eng.Boundary(), s.eng.QuantaElapsed())
	}
	if seq := s.hub.Seq(); snap.sseSeq != seq {
		return fmt.Errorf("diverged from leader: snapshot SSE seq %d, follower at %d", snap.sseSeq, seq)
	}
	// Tracking the leader's delta watermark lets a promoted follower
	// continue the same chain.
	s.snapshotJournaledLocked(snap)
	return nil
}

// follow is the follower's driver goroutine: tail the leader until the
// tailer stops. Four exits: promotion (this goroutine becomes the quantum
// clock, via drive), the leader's drain (the journal is complete), shutdown
// (ctx cancelled), or a fatal replication error. The last three end in
// FinishExternal, as a leader's drain does, so Wait reports a failed final
// journal sync or the wedge.
func (s *Server) follow(ctx context.Context) {
	err := s.tailer.Run(ctx)
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
	}
	if s.killed.Load() {
		// Crash simulation (tests only): stop dead, like SIGKILL would.
		close(s.stopped)
		return
	}
	if err == nil && ctx.Err() == nil && !s.isFollower() {
		// Promoted: continue the leader's run on the applied state — the
		// same resume crash recovery performs. The epoch record is appended
		// here, after the tailer has fully stopped, so it can never
		// interleave with an in-flight shipped append; then this goroutine
		// becomes the quantum clock (or, if the dead leader had already
		// drained, just finishes the drain).
		s.sealPromotion()
		if !s.draining.Load() {
			s.log.Info("follower promoted, starting quantum clock",
				"epoch", s.epoch.Load(), "boundary", s.boundaryNow(),
				"journalBytes", s.journal.Size())
		}
		s.drive(ctx)
		return
	}
	_ = s.FinishExternal() // Wait reports the verdict
}

func (s *Server) boundaryNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Boundary()
}

// Promote switches a follower to leader under the next epoch: the tailer
// stops, and the follow goroutine seals the new term (KindEpoch record) and
// starts the quantum clock on the applied state. The promoted daemon
// resumes the leader's run exactly where its applied journal prefix ends —
// same job ids, same results, same SSE event ids (the PR 4 recovery
// guarantee, reached over the network instead of a reboot).
func (s *Server) Promote(reason string) error {
	return s.PromoteTo(s.epoch.Load()+1, reason)
}

// PromoteTo promotes under an explicit epoch — the term the election (or
// manual claim) won. In group mode the epoch must be promised to this node
// (see Promise): the re-check under s.mu closes the race where this node
// self-promised and then deferred to a strictly longer candidate while its
// own claim was still collecting grants.
func (s *Server) PromoteTo(epoch uint32, reason string) error {
	s.mu.Lock()
	ready := s.repl.headerSeen
	promised := s.promiseEpoch == epoch && s.promiseHolder == s.advertise()
	s.mu.Unlock()
	if !ready {
		return fmt.Errorf("server: follower has no replicated state to promote")
	}
	if cur := s.epoch.Load(); epoch <= cur {
		return fmt.Errorf("server: promotion epoch %d is not beyond current epoch %d", epoch, cur)
	}
	if len(s.cfg.Group) > 0 && !promised {
		return fmt.Errorf("server: epoch %d is not promised to this node", epoch)
	}
	if !s.role.CompareAndSwap(int32(RoleFollower), int32(RoleLeader)) {
		return fmt.Errorf("server: not a follower")
	}
	s.mu.Lock()
	s.pendingEpoch = epoch
	s.mu.Unlock()
	s.confirmed.Store(true) // the quorum (or the operator) just confirmed us
	s.promotions.Add(1)
	s.log.Info("promoting to leader",
		"reason", reason, "epoch", epoch, "journalBytes", s.journal.Size())
	s.tailer.Stop()
	return nil
}

// sealPromotion makes a just-promoted leader's term durable: raise the
// journal epoch and append the KindEpoch record as the first record of the
// new term, before any submit or step is written under it. Runs on the
// follow goroutine after the tailer has stopped; no shipped append can race.
func (s *Server) sealPromotion() {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.pendingEpoch
	s.pendingEpoch = 0
	if epoch == 0 || s.journal == nil || s.fatal != nil {
		return
	}
	s.journal.SetEpoch(epoch)
	s.epoch.Store(epoch)
	_ = s.appendJournal(persist.KindEpoch,
		encodeEpoch(epochRecord{epoch: epoch, leader: s.advertise()}))
}

// --- HTTP surface ---------------------------------------------------------

// redirectToLeader answers writes arriving at a follower with a 307 to the
// current leader, preserving method and body. Returns true when handled.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request) bool {
	if !s.isFollower() {
		return false
	}
	http.Redirect(w, r, s.tailer.Leader()+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	return true
}

// handleJournal streams the journal's bytes from the requested offset,
// then keeps the response open, shipping every new record as it is
// appended (chunked transfer; each burst is flushed). Served by leaders
// and followers alike — a follower's journal is a byte prefix of its
// leader's, so followers can feed further followers (relay tier).
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		WriteJSON(w, http.StatusNotFound, ErrorDTO{"journal disabled (-journal not set)"})
		return
	}
	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		p, err := strconv.ParseInt(v, 10, 64)
		if err != nil || p < 0 {
			WriteJSON(w, http.StatusBadRequest, ErrorDTO{"bad from offset: " + v})
			return
		}
		from = p
	}
	size := s.journal.Size()
	if from > size {
		// The requester holds bytes this journal never wrote: divergent
		// histories (e.g. a shorter journal was promoted after a failover).
		// 409 is a hard error on the follower side — reconnecting cannot
		// heal a wrong history.
		WriteJSON(w, http.StatusConflict, ErrorDTO{fmt.Sprintf(
			"offset %d beyond journal size %d: divergent history", from, size)})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorDTO{"streaming unsupported"})
		return
	}
	f, err := os.Open(s.journal.Path())
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, ErrorDTO{"open journal: " + err.Error()})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(replica.SizeHeader, strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	buf := make([]byte, 64*1024)
	pos := from
	for {
		// Ship everything committed so far. Size() is the clean length —
		// bytes below it are whole records, safe to expose mid-append.
		size = s.journal.Size()
		for pos < size {
			n := len(buf)
			if int64(n) > size-pos {
				n = int(size - pos)
			}
			if _, err := f.ReadAt(buf[:n], pos); err != nil {
				return
			}
			if _, err := w.Write(buf[:n]); err != nil {
				return
			}
			pos += int64(n)
		}
		flusher.Flush()
		ch := s.journal.Updated()
		if s.journal.Size() > pos {
			continue // appended between the copy loop and the channel fetch
		}
		select {
		case <-ch:
		case <-s.drained:
			if s.journal.Size() > pos {
				continue // final drain records still to ship
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// ReplicationDTO is served at /api/v1/replication.
type ReplicationDTO struct {
	// Role is "leader" or "follower".
	Role string `json:"role"`
	// JournalBytes is the local journal's clean length: the leader's
	// shipping high-water mark, the follower's applied offset. The follower
	// with the largest value holds the longest prefix of the dead leader's
	// journal and is the one to promote.
	JournalBytes int64 `json:"journalBytes"`
	// AppliedRecords counts records applied since boot: the journal tail
	// boot recovery replayed after its snapshot, then every shipped record;
	// follower only.
	AppliedRecords int64 `json:"appliedRecords,omitempty"`
	// LagBytes is the follower's best-effort byte lag behind its leader
	// (last observed leader size minus applied offset, floored at zero).
	LagBytes int64 `json:"lagBytes"`
	// Promotions counts role transitions to leader since boot (0 or 1).
	Promotions int64 `json:"promotions"`
	// Epoch is the leadership term this daemon serves under: the highest
	// epoch in its journal. Stale leaders are exactly those whose epoch is
	// below the group maximum.
	Epoch uint32 `json:"epoch"`
	// Addr is the daemon's advertised base URL (-advertise, else the bound
	// listen address) — what group peers and clients should dial.
	Addr string `json:"addr,omitempty"`
	// Fenced reports that this daemon observed a successor's higher epoch
	// and has permanently stopped taking writes (it is shutting down).
	Fenced bool `json:"fenced,omitempty"`
	// Confirmed reports that a grouped leader has completed a probe round
	// without seeing a higher epoch and accepts writes. Followers and
	// groupless leaders are always confirmed.
	Confirmed bool `json:"confirmed"`
	// PromisedEpoch is the highest epoch this member has promised to a
	// failover candidate (zero if none). Probing supervisors treat an
	// outstanding promise beyond their own epoch as "a succession is in
	// flight" — a rebooted stale leader must not confirm through it.
	PromisedEpoch uint32 `json:"promisedEpoch,omitempty"`
	// Tail is the transport status; follower only.
	Tail *replica.Status `json:"tail,omitempty"`
}

func (s *Server) replication() ReplicationDTO {
	dto := ReplicationDTO{
		Role:       Role(s.role.Load()).String(),
		Promotions: s.promotions.Load(),
		Epoch:      s.epoch.Load(),
		Addr:       s.advertise(),
		Fenced:     s.fenced.Load(),
		Confirmed:  s.confirmed.Load(),
	}
	s.mu.Lock()
	dto.PromisedEpoch = s.promiseEpoch
	s.mu.Unlock()
	if s.journal != nil {
		dto.JournalBytes = s.journal.Size()
	}
	if s.tailer != nil && s.isFollower() {
		st := s.tailer.Status()
		dto.Tail = &st
		if lag := st.LeaderBytes - dto.JournalBytes; lag > 0 {
			dto.LagBytes = lag
		}
		s.mu.Lock()
		dto.AppliedRecords = s.repl.applied
		s.mu.Unlock()
	}
	return dto
}

func (s *Server) handleReplication(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.replication())
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.isFollower() {
		WriteJSON(w, http.StatusConflict, ErrorDTO{"not a follower"})
		return
	}
	if s.super != nil {
		// Group mode: a manual promote runs the same quorum claim an
		// automated election runs, so two operators promoting two followers
		// of the same dead leader serialize — exactly one (the longer
		// prefix) wins, and the loser's 409 names the winner.
		if err := s.super.ManualPromote(r.Context()); err != nil {
			var lost *failover.ElectionLost
			if errors.As(err, &lost) && lost.Winner != "" {
				w.Header().Set(WinnerHeader, lost.Winner)
			}
			WriteJSON(w, http.StatusConflict, ErrorDTO{err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, s.replication())
		return
	}
	if err := s.Promote("api"); err != nil {
		WriteJSON(w, http.StatusConflict, ErrorDTO{err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, s.replication())
}
