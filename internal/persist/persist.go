// Package persist is the crash-safety layer of the repository: a write-ahead
// journal plus a compact binary codec for engine snapshots.
//
// The service layer (abg/internal/server) keeps all scheduler state in
// memory; this package makes that state survive process death. The design
// leans on the one property the simulator already guarantees — bit-identical
// replay determinism — so the journal only has to record the externally
// sourced nondeterminism of a run:
//
//   - the journal format version and the configuration the daemon booted
//     with (machine, scheduler, armed fault plan, seed) — the header record;
//   - every accepted job submission, with its generator spec and client
//     idempotency key, written before the submission is acknowledged;
//   - every admission decision: which job ids became schedulable at which
//     quantum boundary;
//   - every executed quantum boundary, and leadership changes;
//   - drain commands;
//   - periodic engine snapshots, so recovery is snapshot + replay-tail
//     rather than re-execution from boundary zero.
//
// Everything else — allotments, quantum measurements, controller updates,
// fault decisions — is a pure function of that log and is recomputed
// bit-identically during recovery.
//
// # Record format
//
// The journal is a single append-only file of length-prefixed records:
//
//	[4 bytes little-endian payload length]
//	[4 bytes CRC32-Castagnoli of the payload]
//	[payload: 1 kind byte + 4 bytes little-endian leader epoch + body]
//
// Every body is a sequence of fields written by Enc (format 1's submit
// record carried JSON in one of them). Dec accepts only the shortest
// encoding of a varint, so every field it decodes has one encoding.
//
// The epoch is the replication-group leadership term under which the record
// was written. Within one journal epochs never decrease; they step up only
// at a KindEpoch record appended by a newly promoted leader, which is how a
// follower applying shipped bytes can tell a legitimate leadership change
// from a resurrected stale leader trying to fork history.
//
// A reader stops at the first record that does not check out — short
// header, short payload, or checksum mismatch — and reports the clean
// prefix length, so a torn tail write (the normal crash artifact) truncates
// to the last whole record instead of poisoning recovery. Corruption is
// never silently skipped: everything after the first bad byte is discarded.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Record kinds. The byte values are part of the on-disk format; append new
// kinds, never renumber. The header record carries the journal format
// version (see internal/server/journal.go): format 1 wrote submissions as
// KindSubmitV1, format 2 writes them as KindSubmit, and every other kind is
// the same in both.
const (
	// KindHeader is the first record of every journal: the journal format
	// version and the daemon configuration the log was written under.
	KindHeader byte = 1
	// KindSubmitV1 is one accepted submission as journal format 1 wrote it,
	// its request JSON-encoded. Nothing writes it any more; recovery and
	// followers still read it.
	KindSubmitV1 byte = 2
	// KindAdmit records that a set of job ids became schedulable at a
	// quantum boundary.
	KindAdmit byte = 3
	// KindDrain records that admission closed.
	KindDrain byte = 4
	// KindSnapshot is an engine + server state snapshot. Its engine blob is
	// a delta holding only the jobs from the lowest one unfinished at the
	// previous snapshot record on (a full snapshot in journals written
	// before deltas); recovery folds the chain of them into the full engine
	// state.
	KindSnapshot byte = 5
	// KindStep records that the engine executed one quantum boundary. With
	// step records the journal is the daemon's complete op log — every state
	// transition is either a journaled record or a deterministic consequence
	// of one — which is what lets a replica reconstruct the leader's exact
	// state from nothing but a byte offset into this file. Idle boundaries
	// (no unfinished jobs, empty queue) are not journaled; they change no
	// replayable state and are reconstructed from the next record's boundary.
	KindStep byte = 6
	// KindEpoch records a leadership change: a newly promoted leader appends
	// it — framed under the new epoch — before resuming the run, so the epoch
	// bump is itself durable and ships to every downstream replica. The body
	// carries the new epoch again plus the new leader's advertised URL.
	KindEpoch byte = 7
	// KindSubmit is one accepted submission (ids reserved, client acked),
	// its request in the binary field layout Enc writes.
	KindSubmit byte = 8
)

// KindName returns a record kind's lowercase name (metric labels, logs);
// both submit kinds render as "submit", and unknown kinds as "unknown".
func KindName(k byte) string {
	switch k {
	case KindHeader:
		return "header"
	case KindSubmit, KindSubmitV1:
		return "submit"
	case KindAdmit:
		return "admit"
	case KindDrain:
		return "drain"
	case KindSnapshot:
		return "snapshot"
	case KindStep:
		return "step"
	case KindEpoch:
		return "epoch"
	default:
		return "unknown"
	}
}

// Record is one decoded journal entry. Epoch is the leadership term stamped
// into the record's framing by the leader that wrote it.
type Record struct {
	Kind  byte
	Epoch uint32
	Body  []byte
}

// ---------------------------------------------------------------- binary enc

// Enc builds a length-delimited little-endian binary payload. The zero
// value is ready to use; Bytes returns the accumulated buffer.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder that appends to buf. A caller that knows the
// payload's leading bytes or its rough size passes them in buf, so neither
// prepending them nor growing the buffer copies the payload.
func NewEnc(buf []byte) *Enc { return &Enc{buf: buf} }

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zigzag) varint.
func (e *Enc) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Enc) Int(v int) { e.Varint(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float appends a float64 by its exact IEEE-754 bits — snapshots must
// round-trip controller state bit-identically.
func (e *Enc) Float(v float64) { e.Uvarint(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Dec decodes a payload written by Enc. Decoding never panics: the first
// malformed field puts the decoder in an error state and every later read
// returns zero values, so callers may decode a whole struct and check Err
// once at the end. A varint longer than its value needs is malformed: Enc
// never writes one, so every field Dec decodes re-encodes to the bytes it
// was read from.
type Dec struct {
	buf []byte
	err error
}

// NewDec returns a decoder over the buffer.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.buf) }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: "+format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		d.fail("non-minimal uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads an int-sized signed varint.
func (d *Dec) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.fail("varint %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one boolean byte.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.fail("truncated bool")
		return false
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	if v > 1 {
		d.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// Float reads a float64 stored as IEEE-754 bits.
func (d *Dec) Float() float64 { return math.Float64frombits(d.Uvarint()) }

// BytesField reads a length-prefixed byte slice (aliasing the input).
func (d *Dec) BytesField() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("byte field length %d exceeds remaining %d", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.BytesField()) }
