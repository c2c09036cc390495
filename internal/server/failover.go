package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"abg/internal/failover"
)

// This file is the server side of automated failover (see internal/failover
// for the supervisor that drives it): the fence/promise endpoint peers claim
// epochs through, the write gates that keep a deposed or unconfirmed leader
// from accepting work, and the bounded read-your-writes wait.

const (
	// EpochHeader is stamped onto every response (the serving daemon's
	// current epoch) and may be sent on writes: a request whose claimed
	// epoch exceeds the server's proves the client has already seen a newer
	// leader, so this daemon must reject the write rather than fork history.
	EpochHeader = "X-Abg-Epoch"
	// OffsetHeader carries a write's commit offset: the journal length, in
	// bytes, that includes the acknowledged record.
	OffsetHeader = "X-Abg-Offset"
	// MinOffsetHeader on a read asks the serving daemon to wait (bounded)
	// until its applied journal prefix reaches the offset — read-your-writes
	// against any replica.
	MinOffsetHeader = "X-Abg-Min-Offset"
	// WinnerHeader on a 409 names the address of the member that holds (or
	// won) the contested leadership.
	WinnerHeader = "X-Abg-Winner"
)

// advertise returns the base URL group peers and clients should dial for
// this daemon: -advertise when configured, the bound listen address
// otherwise.
func (s *Server) advertise() string {
	if s.cfg.Advertise != "" {
		return s.cfg.Advertise
	}
	return failover.NormalizeURL(s.Addr())
}

// Epoch returns the leadership term this daemon currently serves under.
func (s *Server) Epoch() uint32 { return s.epoch.Load() }

// --- failover.Node ---------------------------------------------------------

// Status implements failover.Node.
func (s *Server) Status() failover.NodeStatus {
	st := failover.NodeStatus{
		Role:      Role(s.role.Load()).String(),
		Epoch:     s.epoch.Load(),
		Fenced:    s.fenced.Load(),
		Confirmed: s.confirmed.Load(),
	}
	if s.journal != nil {
		st.JournalBytes = s.journal.Size()
	}
	if s.tailer != nil && s.isFollower() {
		ts := s.tailer.Status()
		st.Leader = ts.Leader
		st.Connected = ts.Connected
	}
	return st
}

// Confirm implements failover.Node: the supervisor completed a probe round
// without finding a higher epoch, so this leader's term is current and
// writes may flow.
func (s *Server) Confirm() {
	if s.confirmed.CompareAndSwap(false, true) {
		s.log.Info("leadership confirmed by group probe", "epoch", s.epoch.Load())
	}
}

// Fence implements failover.Node: a peer serves under a higher epoch, so
// this leader was deposed while it wasn't looking (crash, partition). It
// must never take another write — the fenced state is permanent, surfaces as
// the "fenced" health status, and shuts the daemon down with a non-zero
// exit so supervisors restart it as a follower.
func (s *Server) Fence(epoch uint32, winner string) {
	if !s.fenced.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	s.fencedBy = winner
	s.failLocked(fmt.Errorf("fenced: deposed by epoch %d (leader %s), local epoch %d",
		epoch, winner, s.epoch.Load()))
	s.mu.Unlock()
}

// Retarget implements failover.Node: re-point the tail at the group's
// leader, or re-dial the same one to drop a stream that has gone silent.
// Only the supervisor re-points a running follower; a groupless one is
// re-pointed by restarting it with -follow on its own journal.
func (s *Server) Retarget(leader string) {
	if s.tailer == nil || !s.isFollower() {
		return
	}
	s.tailer.SetLeader(leader)
	s.log.Info("retargeted by failover supervisor", "leader", s.tailer.Leader())
}

// Promise implements failover.Node: evaluate one fencing claim — candidate
// asks this member to back it as leader for epoch. At most one candidate is
// promised per epoch, which is what makes two concurrent claims serialize:
// two quorums at the same epoch would have to share a member, and that
// member only promised one of them. The single exception is a member
// deferring its own self-promise to a strictly better candidate (longer
// journal, then smaller address) — safe because the deferring member's own
// claim can no longer win (the better candidate denies it by the
// longest-prefix rule), and PromoteTo re-checks the promise before acting.
func (s *Server) Promise(epoch uint32, candidate string, candidateBytes int64) failover.FenceResponse {
	self := s.advertise()
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := failover.FenceResponse{Epoch: s.epoch.Load()}
	if s.journal != nil {
		resp.JournalBytes = s.journal.Size()
	}
	better := candidateBytes > resp.JournalBytes ||
		(candidateBytes == resp.JournalBytes && candidate < self)
	switch {
	case s.fenced.Load():
		resp.Reason = "fenced"
	case epoch <= resp.Epoch:
		if !s.isFollower() {
			resp.Holder = self // the claim lost to this leader's term
		}
		resp.Reason = fmt.Sprintf("epoch %d is not beyond current %d", epoch, resp.Epoch)
	case !s.isFollower():
		// A reachable live leader never grants: if a majority can reach it,
		// no death quorum can form, so a claim reaching here is premature.
		resp.Holder = self
		resp.Reason = "live leader"
	case candidateBytes < resp.JournalBytes ||
		(candidateBytes == resp.JournalBytes && candidate != self && candidate > self):
		// Longest-prefix rule: never back a candidate whose journal is
		// shorter than ours (ties break toward the smaller address) — the
		// promoted journal must subsume every survivor's.
		resp.Holder = self
		resp.Reason = fmt.Sprintf("shorter journal (%d < %d bytes)", candidateBytes, resp.JournalBytes)
	case epoch < s.promiseEpoch:
		resp.Holder = s.promiseHolder
		resp.Reason = fmt.Sprintf("superseded by a claim at epoch %d", s.promiseEpoch)
	case epoch == s.promiseEpoch && s.promiseHolder != "" && s.promiseHolder != candidate:
		if s.promiseHolder == self && better {
			// Defer the self-promise to the strictly better candidate.
			s.promiseHolder = candidate
			resp.Granted = true
		} else {
			resp.Holder = s.promiseHolder
			resp.Reason = "already promised this epoch"
		}
	default:
		s.promiseEpoch = epoch
		s.promiseHolder = candidate
		resp.Granted = true
	}
	return resp
}

// handleFence serves POST /api/v1/fence: the wire form of Promise. Always
// answers 200 — a denial is a well-formed verdict, not an HTTP error.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req failover.FenceRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDTO{"bad request body: " + err.Error()})
		return
	}
	if req.Epoch == 0 || req.Candidate == "" {
		WriteJSON(w, http.StatusBadRequest, ErrorDTO{"epoch and candidate are required"})
		return
	}
	resp := s.Promise(req.Epoch, failover.NormalizeURL(req.Candidate), req.JournalBytes)
	if !resp.Granted {
		s.log.Info("denied fencing claim",
			"epoch", req.Epoch, "candidate", req.Candidate, "reason", resp.Reason)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// --- write gates and read-your-writes -------------------------------------

// rejectWrite answers writes the daemon's replication condition forbids:
// fenced (deposed — permanent 409 naming the successor), behind the
// client's observed epoch (the client proves a newer leader exists), or an
// unconfirmed grouped leader (transient 503 until the first clean probe
// round — a restarted stale leader must discover its deposition before it
// may ack anything). Returns true when the request was answered.
func (s *Server) rejectWrite(w http.ResponseWriter, r *http.Request) bool {
	if s.fenced.Load() {
		s.mu.Lock()
		winner := s.fencedBy
		s.mu.Unlock()
		msg := "fenced: this daemon was deposed"
		if winner != "" {
			w.Header().Set(WinnerHeader, winner)
			msg += "; current leader at " + winner
		}
		WriteJSON(w, http.StatusConflict, ErrorDTO{msg})
		return true
	}
	if c := r.Header.Get(EpochHeader); c != "" {
		if ce, err := strconv.ParseUint(c, 10, 32); err == nil && uint32(ce) > s.epoch.Load() {
			WriteJSON(w, http.StatusConflict, ErrorDTO{fmt.Sprintf(
				"stale leader: client has observed epoch %d, this daemon serves epoch %d",
				ce, s.epoch.Load())})
			return true
		}
	}
	if !s.confirmed.Load() {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable,
			ErrorDTO{"leader unconfirmed: awaiting first group probe round"})
		return true
	}
	return false
}

// waitMinOffset implements read-your-writes: a read carrying
// X-Abg-Min-Offset is not answered until this daemon's journal holds that
// many bytes. Replica state is a pure function of the applied prefix, so a
// write acknowledged at offset N is visible on any member whose journal has
// reached N. The wait is bounded by ReadWaitMax; on timeout the daemon
// answers 503 with Retry-After — it never serves a read it can prove stale.
// Returns true when the request was answered (error or timeout).
func (s *Server) waitMinOffset(w http.ResponseWriter, r *http.Request) bool {
	v := r.Header.Get(MinOffsetHeader)
	if v == "" {
		return false
	}
	min, err := strconv.ParseInt(v, 10, 64)
	if err != nil || min < 0 {
		WriteJSON(w, http.StatusBadRequest, ErrorDTO{"bad " + MinOffsetHeader + ": " + v})
		return true
	}
	if min == 0 {
		return false
	}
	if s.journal == nil {
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable,
			ErrorDTO{"journal disabled: cannot prove journal offset " + v + " applied"})
		return true
	}
	deadline := time.NewTimer(s.cfg.ReadWaitMax)
	defer deadline.Stop()
	for {
		// Fetch the wake channel before the size check: an append between
		// the two replaces the channel, and this order can only make us wake
		// spuriously, never miss.
		ch := s.journal.Updated()
		size := s.journal.Size()
		if size >= min {
			return false
		}
		select {
		case <-ch:
		case <-deadline.C:
			w.Header().Set("Retry-After", "1")
			WriteJSON(w, http.StatusServiceUnavailable, ErrorDTO{fmt.Sprintf(
				"replica behind: applied %d of required %d journal bytes within %s",
				size, min, s.cfg.ReadWaitMax)})
			return true
		case <-r.Context().Done():
			return true
		}
	}
}
