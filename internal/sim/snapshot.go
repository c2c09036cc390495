package sim

import (
	"bytes"
	"fmt"

	"abg/internal/feedback"
	"abg/internal/job"
	"abg/internal/persist"
	"abg/internal/sched"
)

// Engine snapshots: a versioned binary encoding of the engine's complete
// mutable state — quantum counters, per-job outcomes, DAG execution
// cursors, and controller state — so a crashed service can restore to a
// recent boundary and replay only the journal tail.
//
// A snapshot deliberately contains no job *descriptions* and no
// configuration: the restoring side rebuilds the same JobSpecs (profiles,
// policies, restart hooks) of the jobs that are not done from its journaled
// workload records, then Restore loads the cursors onto them. Because the
// engine is bit-identically replay-deterministic, a restored engine
// continues exactly as the original would have — the recovery tests assert
// DeepEqual against an uninterrupted run.

// Snapshot format: magic, version byte, then the field stream below.
//
// Version 3 is the one MarshalBinary and MarshalDelta write and the only
// one RestoreEngine reads. Full and delta blobs share its layout: the
// header (boundary, capacity, drain flag, remaining, makespan, waste,
// quanta, job count n), then from, then one entry per job in [from, n). A
// full snapshot is the blob from 0. Every entry starts with the job's
// outcome, its request and its started and done flags. A done entry then
// holds only what JobStatus reports of the job's final quantum: allotment,
// work and critical path (whose ratio is A(q)) and the deprived flag; the
// engine dropped the job's instance, policy and restart hook when it
// completed. An unfinished entry holds the deprivation tracker, the attempt
// work, the last quantum's statistics, and the instance and policy state.
//
// A writer keeps a chain of deltas, each from the lowest job id that was
// not done when it wrote the previous one. A done job's entry never changes
// again, so the last blob that carried a job below from holds its final
// entry, and FoldSnapshots rebuilds the full snapshot from the chain. A
// writer's per-snapshot cost is then its unfinished jobs plus those
// finished since the previous delta, not every job ever served.
//
// Versions 1 (full) and 2 (delta, with from) were written before done jobs
// were released: the same header, and entries whose done jobs carry the
// unfinished layout, cursors included. FoldSnapshots is their one reader:
// it folds any chain mixing versions 1 to 3 into version-3 bytes.
var snapMagic = []byte("ABGSNAP")

const (
	snapV1Full  byte = 1 // read by FoldSnapshots only
	snapV2Delta byte = 2 // read by FoldSnapshots only
	snapVersion byte = 3
)

// The encoder's buffer is sized up front for a header and entries of
// these sizes, so a snapshot of typical jobs is written into one
// allocation instead of append's ~1.25× growth steps, whose copies add up
// to several times the snapshot. An entry of a constant-width job under
// A-Control takes about 90 B, a done entry about 40 B; larger entries grow
// the buffer as before.
const (
	snapHeaderHint    = 64
	snapEntryHint     = 96
	snapDoneEntryHint = 48
)

// MarshalBinary encodes the engine's mutable state as a full snapshot: the
// version-3 blob from job 0. It fails when the engine records per-quantum
// traces (KeepTrace) — snapshots do not carry traces — or when an
// unfinished job's instance or policy does not support state capture.
func (e *Engine) MarshalBinary() ([]byte, error) {
	return e.marshal(0)
}

// MarshalDelta encodes a delta snapshot holding the header and the entries
// of jobs [from, NumJobs()) only. from must be the lowest job id that was
// not done when the chain's previous snapshot was written (0 for the
// first); FoldSnapshots turns the chain back into MarshalBinary's bytes.
func (e *Engine) MarshalDelta(from int) ([]byte, error) {
	if n := e.states.len(); from < 0 || from > n {
		return nil, fmt.Errorf("sim: delta snapshot from %d outside [0, %d]", from, n)
	}
	return e.marshal(from)
}

// marshal writes the header, from, and the entries of jobs [from, n).
func (e *Engine) marshal(from int) ([]byte, error) {
	if e.cfg.KeepTrace {
		return nil, fmt.Errorf("sim: snapshot does not support KeepTrace engines")
	}
	n := e.states.len()
	// A chain's from is its watermark, below which every job is done, so
	// [from, n) holds about this many done jobs.
	done := max(n-e.remaining-from, 0)
	size := snapHeaderHint + snapEntryHint*(n-from-done) + snapDoneEntryHint*done
	buf := make([]byte, 0, len(snapMagic)+1+size)
	enc := persist.NewEnc(append(append(buf, snapMagic...), snapVersion))
	enc.Int(e.k)
	enc.Int(e.capNow)
	enc.Bool(e.draining)
	enc.Int(e.remaining)
	enc.Varint(e.res.Makespan)
	enc.Varint(e.res.TotalWaste)
	enc.Int(e.res.QuantaElapsed)
	enc.Int(n)
	enc.Int(from)
	for i := from; i < n; i++ {
		s, j := e.states.at(i), e.outcomes.at(i)
		if s.done {
			encodeJobEntry(enc, j, s, nil, nil)
			continue
		}
		sp := e.specs.at(i)
		st, ok := sp.Inst.(job.Stateful)
		if !ok {
			return nil, fmt.Errorf("sim: job %d instance %T does not support state snapshots", i, sp.Inst)
		}
		inst, err := st.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("sim: job %d instance: %w", i, err)
		}
		pol, err := feedback.MarshalState(sp.Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		encodeJobEntry(enc, j, s, inst, pol)
	}
	return enc.Bytes(), nil
}

// FoldSnapshots folds an ordered chain of snapshot blobs into the full
// snapshot bytes MarshalBinary returned when the last blob was written, in
// one pass over the chain, and reports by job id which jobs the folded
// snapshot records as done: RestoreEngine needs rebuilt specs only for the
// others, so a recovering service can skip building the rest. It is the
// one reader of versions 1 and 2, and
// folds any chain mixing them with version 3: a full blob (version 1, or
// version 3 from 0) resets the chain, and every other blob replaces the
// entries of jobs [from, n). An entry read from a version 1 or 2 blob is
// rewritten in the version-3 layout, so a done job's cursors are dropped.
// The fold rejects an unknown version, a from that moves backwards or past
// the jobs folded so far, a job count that shrinks, a job dropped below
// from whose last entry is not done, and a malformed or trailing byte
// stream.
func FoldSnapshots(chain [][]byte) ([]byte, []bool, error) {
	if len(chain) == 0 {
		return nil, nil, fmt.Errorf("sim: empty snapshot chain")
	}
	var (
		header  []byte   // the last blob's header fields, job count included
		entries [][]byte // per job: its entry in the last blob that carried it
		done    []bool   // per job: that entry's done flag
		from    int      // the previous blob's from
	)
	for b, blob := range chain {
		if len(blob) < len(snapMagic)+1 || !bytes.Equal(blob[:len(snapMagic)], snapMagic) {
			return nil, nil, fmt.Errorf("sim: chain blob %d is not an engine snapshot (%d bytes)", b, len(blob))
		}
		v := blob[len(snapMagic)]
		body := blob[len(snapMagic)+1:]
		d := persist.NewDec(body)
		d.Int()    // k
		d.Int()    // capNow
		d.Bool()   // draining
		d.Int()    // remaining
		d.Varint() // makespan
		d.Varint() // total waste
		d.Int()    // quanta elapsed
		n := d.Int()
		hdr := body[:len(body)-d.Len()]
		f := 0
		switch v {
		case snapV1Full:
		case snapV2Delta, snapVersion:
			f = d.Int()
		default:
			return nil, nil, fmt.Errorf("sim: chain blob %d: snapshot version %d, this build reads %d to %d",
				b, v, snapV1Full, snapVersion)
		}
		if err := d.Err(); err != nil {
			return nil, nil, fmt.Errorf("sim: chain blob %d header: %w", b, err)
		}
		if v == snapV1Full || (v == snapVersion && f == 0) {
			entries, done, from = entries[:0], done[:0], 0
		}
		switch {
		case f < from:
			return nil, nil, fmt.Errorf("sim: chain blob %d: from %d moves back from %d", b, f, from)
		case f > len(entries):
			return nil, nil, fmt.Errorf("sim: chain blob %d: from %d skips past the %d jobs folded so far", b, f, len(entries))
		case n < len(entries):
			return nil, nil, fmt.Errorf("sim: chain blob %d: job count shrinks from %d to %d", b, len(entries), n)
		}
		for i := from; i < f; i++ {
			if !done[i] {
				return nil, nil, fmt.Errorf("sim: chain blob %d: drops job %d below from %d before it is done", b, i, f)
			}
		}
		entries, done = entries[:f], done[:f]
		for i := f; i < n; i++ {
			start := len(body) - d.Len()
			j, s, inst, pol := decodeJobEntry(d, v)
			if err := d.Err(); err != nil {
				return nil, nil, fmt.Errorf("sim: chain blob %d job %d: %w", b, i, err)
			}
			en := body[start : len(body)-d.Len()]
			if v != snapVersion && s.done {
				// The version-3 layout of a done entry holds no cursors.
				enc := persist.NewEnc(make([]byte, 0, len(en)))
				encodeJobEntry(enc, &j, &s, inst, pol)
				en = enc.Bytes()
			}
			entries = append(entries, en)
			done = append(done, s.done)
		}
		if d.Len() != 0 {
			return nil, nil, fmt.Errorf("sim: chain blob %d has %d trailing bytes", b, d.Len())
		}
		header, from = hdr, f
	}
	size := len(snapMagic) + 1 + len(header) + 1
	for _, en := range entries {
		size += len(en)
	}
	enc := persist.NewEnc(append(append(append(make([]byte, 0, size), snapMagic...), snapVersion), header...))
	enc.Int(0) // from: the fold is a full snapshot
	out := enc.Bytes()
	for _, en := range entries {
		out = append(out, en...)
	}
	return out, done, nil
}

// snapHeader is a version-3 snapshot's header.
type snapHeader struct {
	k, capNow       int
	draining        bool
	remaining       int
	makespan, waste int64
	quanta, n, from int
}

// readSnapshot checks a version-3 full snapshot's magic, version and header
// and returns the header with a decoder positioned at the first entry.
func readSnapshot(data []byte) (snapHeader, *persist.Dec, error) {
	var h snapHeader
	if len(data) < len(snapMagic)+1 || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return h, nil, fmt.Errorf("sim: not an engine snapshot (%d bytes)", len(data))
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return h, nil, fmt.Errorf("sim: snapshot version %d, this build restores %d (FoldSnapshots reads %d to %d)",
			v, snapVersion, snapV1Full, snapVersion)
	}
	d := persist.NewDec(data[len(snapMagic)+1:])
	h.k = d.Int()
	h.capNow = d.Int()
	h.draining = d.Bool()
	h.remaining = d.Int()
	h.makespan = d.Varint()
	h.waste = d.Varint()
	h.quanta = d.Int()
	h.n = d.Int()
	h.from = d.Int()
	if err := d.Err(); err != nil {
		return h, nil, fmt.Errorf("sim: snapshot header: %w", err)
	}
	if h.from != 0 {
		return h, nil, fmt.Errorf("sim: snapshot is a delta from job %d; fold its chain first", h.from)
	}
	return h, d, nil
}

// RestoreEngine rebuilds an engine from a full snapshot (MarshalBinary's
// bytes, or FoldSnapshots' of a chain). specs holds one JobSpec per
// snapshotted job, in job-id order. A job the snapshot records as done
// needs none: its spec may be zero, and a non-zero one is cross-checked
// for total work and critical path, then dropped. Every other job needs a
// freshly built spec describing the *same* job (same profile, same policy
// configuration, same restart hook), cross-checked the same way; its
// instance and policy receive the snapshotted cursor and controller state,
// and the engine's copy of its Release is overwritten from the snapshot.
// The jobs enter the engine's tables through the same push as Submit, and
// the waiting and live indexes are rebuilt from their lifecycle flags.
func RestoreEngine(cfg MultiConfig, data []byte, specs []JobSpec) (*Engine, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	h, d, err := readSnapshot(data)
	if err != nil {
		return nil, err
	}
	e.k = h.k
	e.capNow = h.capNow
	e.draining = h.draining
	e.res.Makespan = h.makespan
	e.res.TotalWaste = h.waste
	e.res.QuantaElapsed = h.quanta
	if h.n != len(specs) {
		return nil, fmt.Errorf("sim: snapshot holds %d jobs, caller rebuilt %d specs", h.n, len(specs))
	}
	unfinished := 0
	for i := 0; i < h.n; i++ {
		j, s, instState, polState := decodeJobEntry(d, snapVersion)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("sim: snapshot job %d: %w", i, err)
		}
		sp := specs[i]
		if sp.Inst != nil {
			// A restarted job's live instance is a fresh attempt of the same
			// profile, so work and critical path still match the description.
			if w := sp.Inst.TotalWork(); w != j.Work {
				return nil, fmt.Errorf("sim: job %d rebuilt with work %d, snapshot has %d (wrong workload?)", i, w, j.Work)
			}
			if c := sp.Inst.CriticalPathLen(); c != j.CriticalPath {
				return nil, fmt.Errorf("sim: job %d rebuilt with critical path %d, snapshot has %d", i, c, j.CriticalPath)
			}
		}
		if s.done {
			sp = JobSpec{Name: j.Name, Release: j.Release}
		} else {
			if sp.Inst == nil || sp.Policy == nil {
				return nil, fmt.Errorf("sim: rebuilt spec %d missing instance or policy", i)
			}
			st, ok := sp.Inst.(job.Stateful)
			if !ok {
				return nil, fmt.Errorf("sim: job %d instance %T does not support state snapshots", i, sp.Inst)
			}
			if err := st.UnmarshalState(instState); err != nil {
				return nil, fmt.Errorf("sim: job %d instance: %w", i, err)
			}
			if err := feedback.UnmarshalState(sp.Policy, polState); err != nil {
				return nil, fmt.Errorf("sim: job %d: %w", i, err)
			}
			sp.Release = j.Release
		}
		id := e.push(&sp, &s, &j)
		switch {
		case s.done:
			e.respSum += j.Response
		case s.started:
			e.live = append(e.live, id)
			e.running++
			unfinished++
		default:
			e.waiting = append(e.waiting, id)
			unfinished++
		}
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("sim: snapshot has %d trailing bytes", d.Len())
	}
	if unfinished != h.remaining {
		return nil, fmt.Errorf("sim: snapshot remaining %d != %d unfinished jobs", h.remaining, unfinished)
	}
	e.unseen = h.n
	e.remaining = h.remaining
	return e, nil
}

// encodeJobEntry appends one job's entry in the version-3 layout. inst and
// pol are the instance and policy state of an unfinished job; a done job's
// entry has none.
func encodeJobEntry(enc *persist.Enc, j *JobOutcome, s *jobState, inst, pol []byte) {
	enc.String(j.Name)
	enc.Varint(j.Release)
	enc.Varint(j.Completion)
	enc.Varint(j.Response)
	enc.Varint(j.Work)
	enc.Int(j.CriticalPath)
	enc.Varint(j.Waste)
	enc.Int(j.NumQuanta)
	enc.Int(j.DeprivedQ)
	enc.Int(j.Restarts)
	enc.Varint(j.LostWork)

	enc.Float(s.request)
	enc.Bool(s.started)
	enc.Bool(s.done)
	if s.done {
		enc.Int(s.last.Allotment)
		enc.Varint(s.last.Work)
		enc.Float(s.last.CPL)
		enc.Bool(s.last.Deprived)
		return
	}
	enc.Bool(s.deprived)
	enc.Varint(s.attemptWork)
	encodeQuantumStats(enc, &s.last)
	enc.BytesField(inst)
	enc.BytesField(pol)
}

// decodeJobEntry reads one job's entry as a blob of the given version
// wrote it: its outcome, its bookkeeping, and for an unfinished job (or any
// job of a version 1 or 2 blob) its instance and policy state, aliasing
// d's buffer. A done job's bookkeeping comes back as finish leaves it, with
// last holding only the fields a done entry carries.
func decodeJobEntry(d *persist.Dec, version byte) (j JobOutcome, s jobState, inst, pol []byte) {
	j.Name = d.String()
	j.Release = d.Varint()
	j.Completion = d.Varint()
	j.Response = d.Varint()
	j.Work = d.Varint()
	j.CriticalPath = d.Int()
	j.Waste = d.Varint()
	j.NumQuanta = d.Int()
	j.DeprivedQ = d.Int()
	j.Restarts = d.Int()
	j.LostWork = d.Varint()

	s.request = d.Float()
	s.started = d.Bool()
	s.done = d.Bool()
	if s.done && version == snapVersion {
		s.last.Allotment = d.Int()
		s.last.Work = d.Varint()
		s.last.CPL = d.Float()
		s.last.Deprived = d.Bool()
		return j, s, nil, nil
	}
	s.deprived = d.Bool()
	s.attemptWork = d.Varint()
	s.last = decodeQuantumStats(d)
	inst = d.BytesField()
	pol = d.BytesField()
	if s.done {
		s.finish()
	}
	return j, s, inst, pol
}

// encodeQuantumStats appends every QuantumStats field.
func encodeQuantumStats(e *persist.Enc, st *sched.QuantumStats) {
	e.Int(st.Index)
	e.Varint(st.Start)
	e.Float(st.Request)
	e.Int(st.Allotment)
	e.Int(st.Length)
	e.Int(st.Steps)
	e.Varint(st.Work)
	e.Float(st.CPL)
	e.Int(st.IdleSteps)
	e.Int(st.PartialSteps)
	e.Int(st.LevelsTouched)
	e.Bool(st.Deprived)
	e.Bool(st.Completed)
}

// decodeQuantumStats reads what encodeQuantumStats wrote.
func decodeQuantumStats(d *persist.Dec) sched.QuantumStats {
	return sched.QuantumStats{
		Index:         d.Int(),
		Start:         d.Varint(),
		Request:       d.Float(),
		Allotment:     d.Int(),
		Length:        d.Int(),
		Steps:         d.Int(),
		Work:          d.Varint(),
		CPL:           d.Float(),
		IdleSteps:     d.Int(),
		PartialSteps:  d.Int(),
		LevelsTouched: d.Int(),
		Deprived:      d.Bool(),
		Completed:     d.Bool(),
	}
}

// ResumeState is the mid-run, per-job state a recovering service needs to
// re-prime run-scoped subscribers (e.g. the invariant checker's deprivation
// and work-conservation accounting) after restoring an engine whose earlier
// events they never saw.
type ResumeState struct {
	// Started and Done classify the job's lifecycle stage.
	Started, Done bool
	// Deprived is the job's current deprivation state (the transition
	// tracker, not just the last quantum's flag).
	Deprived bool
	// AttemptWork is the work executed since the job's last (re)start.
	// Both are false and zero for a done job: it has nothing to resume.
	AttemptWork int64
}

// ResumeStates returns the per-job resume state, by job id.
func (e *Engine) ResumeStates() []ResumeState {
	out := make([]ResumeState, e.states.len())
	for i := range out {
		s := e.states.at(i)
		out[i] = ResumeState{
			Started:     s.started,
			Done:        s.done,
			Deprived:    s.deprived,
			AttemptWork: s.attemptWork,
		}
	}
	return out
}
