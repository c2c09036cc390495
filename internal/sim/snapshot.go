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
// policies, restart hooks) from its journaled workload records, then
// Restore loads the cursors onto them. Because the engine is
// bit-identically replay-deterministic, a restored engine continues exactly
// as the original would have — the recovery tests assert DeepEqual against
// an uninterrupted run.

// Snapshot format: magic, version byte, then the field stream below — the
// header (boundary, capacity, drain flag, remaining, makespan, waste,
// quanta, job count n) and one entry per job.
//
// Version 1 is a full snapshot: entries for jobs [0, n). It is what
// MarshalBinary writes and the only version RestoreEngine reads.
//
// Version 2 is a delta (MarshalDelta): the same header, then from, then
// entries for jobs [from, n) only. A writer keeps a chain of deltas, each
// from the lowest job id that was not done when it wrote the previous one.
// A done job's entry never changes again — Step and the reduce phase skip
// done jobs — so the last delta that carried a job below from holds its
// final entry, and FoldSnapshots rebuilds the full version-1 bytes from the
// chain. A writer's per-snapshot cost is then its unfinished jobs plus
// those finished since the previous delta, not every job ever served.
var snapMagic = []byte("ABGSNAP")

const (
	snapVersion      byte = 1
	snapDeltaVersion byte = 2
)

// The encoder's buffer is sized up front for a header and entries of
// these sizes, so a snapshot of typical jobs is written into one
// allocation instead of append's ~1.25× growth steps, whose copies add up
// to several times the snapshot. An entry of a constant-width job under
// A-Control takes about 90 B; larger entries grow the buffer as before.
const (
	snapHeaderHint = 64
	snapEntryHint  = 96
)

// MarshalBinary encodes the engine's mutable state as a full (version 1)
// snapshot. It fails when the engine records per-quantum traces
// (KeepTrace) — snapshots do not carry traces — or when a job's instance or
// policy does not support state capture.
func (e *Engine) MarshalBinary() ([]byte, error) {
	return e.marshal(snapVersion, 0)
}

// MarshalDelta encodes a delta (version 2) snapshot holding the header and
// the entries of jobs [from, NumJobs()) only. from must be the lowest job id
// that was not done when the chain's previous snapshot was written (0 for
// the first); FoldSnapshots turns the chain back into MarshalBinary's bytes.
func (e *Engine) MarshalDelta(from int) ([]byte, error) {
	if n := e.states.len(); from < 0 || from > n {
		return nil, fmt.Errorf("sim: delta snapshot from %d outside [0, %d]", from, n)
	}
	return e.marshal(snapDeltaVersion, from)
}

// marshal writes the header and the entries of jobs [from, n); version 2
// also records from.
func (e *Engine) marshal(version byte, from int) ([]byte, error) {
	if e.cfg.KeepTrace {
		return nil, fmt.Errorf("sim: snapshot does not support KeepTrace engines")
	}
	buf := make([]byte, 0, len(snapMagic)+1+snapHeaderHint+snapEntryHint*(e.states.len()-from))
	enc := persist.NewEnc(append(append(buf, snapMagic...), version))
	enc.Int(e.k)
	enc.Int(e.capNow)
	enc.Bool(e.draining)
	enc.Int(e.remaining)
	enc.Varint(e.res.Makespan)
	enc.Varint(e.res.TotalWaste)
	enc.Int(e.res.QuantaElapsed)
	enc.Int(e.states.len())
	if version == snapDeltaVersion {
		enc.Int(from)
	}
	for i := from; i < e.states.len(); i++ {
		s, j, sp := e.states.at(i), e.outcomes.at(i), e.specs.at(i)
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
		enc.Bool(s.deprived)
		enc.Varint(s.attemptWork)
		encodeQuantumStats(enc, &s.last)

		st, ok := sp.Inst.(job.Stateful)
		if !ok {
			return nil, fmt.Errorf("sim: job %d instance %T does not support state snapshots", i, sp.Inst)
		}
		inst, err := st.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("sim: job %d instance: %w", i, err)
		}
		enc.BytesField(inst)
		pol, err := feedback.MarshalState(sp.Policy)
		if err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		enc.BytesField(pol)
	}
	return enc.Bytes(), nil
}

// FoldSnapshots folds an ordered chain of snapshot blobs into the full
// (version 1) snapshot bytes MarshalBinary returned when the last blob was
// written, in one pass over the chain. A version-1 blob resets the chain;
// each delta replaces the entries of jobs [from, n). The fold rejects an
// unknown version, a from that moves backwards or past the jobs folded so
// far, a job count that shrinks, a job dropped below from whose last entry
// is not done, and a malformed or trailing byte stream.
func FoldSnapshots(chain [][]byte) ([]byte, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("sim: empty snapshot chain")
	}
	var (
		header  []byte   // the last blob's header fields, job count included
		entries [][]byte // per job: its entry in the last blob that carried it
		done    []bool   // per job: that entry's done flag
		from    int      // the previous blob's from
	)
	for b, blob := range chain {
		if len(blob) < len(snapMagic)+1 || !bytes.Equal(blob[:len(snapMagic)], snapMagic) {
			return nil, fmt.Errorf("sim: chain blob %d is not an engine snapshot (%d bytes)", b, len(blob))
		}
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
		switch v := blob[len(snapMagic)]; v {
		case snapVersion:
			entries, done, from = entries[:0], done[:0], 0
		case snapDeltaVersion:
			f = d.Int()
		default:
			return nil, fmt.Errorf("sim: chain blob %d: snapshot version %d, this build reads %d and %d",
				b, v, snapVersion, snapDeltaVersion)
		}
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("sim: chain blob %d header: %w", b, err)
		}
		switch {
		case f < from:
			return nil, fmt.Errorf("sim: chain blob %d: from %d moves back from %d", b, f, from)
		case f > len(entries):
			return nil, fmt.Errorf("sim: chain blob %d: from %d skips past the %d jobs folded so far", b, f, len(entries))
		case n < len(entries):
			return nil, fmt.Errorf("sim: chain blob %d: job count shrinks from %d to %d", b, len(entries), n)
		}
		for i := from; i < f; i++ {
			if !done[i] {
				return nil, fmt.Errorf("sim: chain blob %d: drops job %d below from %d before it is done", b, i, f)
			}
		}
		entries, done = entries[:f], done[:f]
		for i := f; i < n; i++ {
			start := len(body) - d.Len()
			_, s, _, _ := decodeJobEntry(d)
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("sim: chain blob %d job %d: %w", b, i, err)
			}
			entries = append(entries, body[start:len(body)-d.Len()])
			done = append(done, s.done)
		}
		if d.Len() != 0 {
			return nil, fmt.Errorf("sim: chain blob %d has %d trailing bytes", b, d.Len())
		}
		header, from = hdr, f
	}
	size := len(snapMagic) + 1 + len(header)
	for _, en := range entries {
		size += len(en)
	}
	out := make([]byte, 0, size)
	out = append(out, snapMagic...)
	out = append(out, snapVersion)
	out = append(out, header...)
	for _, en := range entries {
		out = append(out, en...)
	}
	return out, nil
}

// RestoreEngine rebuilds an engine from a snapshot. specs must contain one
// freshly built JobSpec per snapshotted job, in job-id order, describing
// the *same* jobs (same profile, same policy configuration, same restart
// hook) — total work and critical path are cross-checked. Each spec's
// instance and policy receive the snapshotted cursor and controller state;
// the engine's copy of spec.Release is overwritten from the snapshot. The
// jobs enter the engine's tables through the same push as Submit, and the
// waiting and live indexes are rebuilt from their lifecycle flags.
func RestoreEngine(cfg MultiConfig, data []byte, specs []JobSpec) (*Engine, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+1 || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, fmt.Errorf("sim: not an engine snapshot (%d bytes)", len(data))
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("sim: snapshot version %d, this build reads %d", v, snapVersion)
	}
	d := persist.NewDec(data[len(snapMagic)+1:])
	e.k = d.Int()
	e.capNow = d.Int()
	e.draining = d.Bool()
	remaining := d.Int()
	e.res.Makespan = d.Varint()
	e.res.TotalWaste = d.Varint()
	e.res.QuantaElapsed = d.Int()
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("sim: snapshot header: %w", err)
	}
	if n != len(specs) {
		return nil, fmt.Errorf("sim: snapshot holds %d jobs, caller rebuilt %d specs", n, len(specs))
	}
	unfinished := 0
	for i := 0; i < n; i++ {
		if specs[i].Inst == nil || specs[i].Policy == nil {
			return nil, fmt.Errorf("sim: rebuilt spec %d missing instance or policy", i)
		}
		sp := specs[i]
		j, s, instState, polState := decodeJobEntry(d)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("sim: snapshot job %d: %w", i, err)
		}

		// A restarted job's live instance is a fresh attempt of the same
		// profile, so work and critical path still match the description.
		if w := sp.Inst.TotalWork(); w != j.Work {
			return nil, fmt.Errorf("sim: job %d rebuilt with work %d, snapshot has %d (wrong workload?)", i, w, j.Work)
		}
		if c := sp.Inst.CriticalPathLen(); c != j.CriticalPath {
			return nil, fmt.Errorf("sim: job %d rebuilt with critical path %d, snapshot has %d", i, c, j.CriticalPath)
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
	if unfinished != remaining {
		return nil, fmt.Errorf("sim: snapshot remaining %d != %d unfinished jobs", remaining, unfinished)
	}
	e.unseen = n
	e.remaining = remaining
	return e, nil
}

// decodeJobEntry reads one job's snapshot entry: its outcome, its
// bookkeeping, and its instance and policy state (aliasing d's buffer).
func decodeJobEntry(d *persist.Dec) (j JobOutcome, s jobState, inst, pol []byte) {
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
	s.deprived = d.Bool()
	s.attemptWork = d.Varint()
	s.last = decodeQuantumStats(d)
	inst = d.BytesField()
	pol = d.BytesField()
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
