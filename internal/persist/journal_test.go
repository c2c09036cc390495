package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestEncDecRoundTrip pins the binary codec: every field type round-trips
// exactly, including float bit patterns.
func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.Uvarint(0)
	e.Uvarint(1 << 60)
	e.Varint(-12345)
	e.Int(42)
	e.Bool(true)
	e.Bool(false)
	e.Float(0.1 + 0.2) // not exactly 0.3 — bit identity matters
	e.Float(math.Inf(-1))
	e.BytesField([]byte{1, 2, 3})
	e.String("hello")
	e.String("")

	d := NewDec(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.Uvarint(); got != 1<<60 {
		t.Errorf("uvarint = %d", got)
	}
	if got := d.Varint(); got != -12345 {
		t.Errorf("varint = %d", got)
	}
	if got := d.Int(); got != 42 {
		t.Errorf("int = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools corrupted")
	}
	if got := d.Float(); math.Float64bits(got) != math.Float64bits(0.1+0.2) {
		t.Errorf("float bits differ: %v", got)
	}
	if got := d.Float(); !math.IsInf(got, -1) {
		t.Errorf("float = %v, want -Inf", got)
	}
	if got := d.BytesField(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if got := d.String(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("string = %q", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Len() != 0 {
		t.Errorf("%d bytes left over", d.Len())
	}
}

// TestDecTruncated pins that a truncated buffer reports an error instead of
// panicking or returning garbage silently.
func TestDecTruncated(t *testing.T) {
	var e Enc
	e.String("payload")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDec(full[:cut])
		_ = d.String()
		if d.Err() == nil && cut < len(full) {
			t.Fatalf("cut at %d: no error", cut)
		}
	}
}

// TestJournalAppendScan pins the basic append → scan round trip, including
// reopen-for-append.
func TestJournalAppendScan(t *testing.T) {
	dir := t.TempDir()
	j, scan, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 0 || scan.TruncatedBytes != 0 {
		t.Fatalf("fresh journal scan = %+v", scan)
	}
	records := [][2]any{
		{KindHeader, []byte(`{"p":16}`)},
		{KindSubmit, []byte(`{"base":0}`)},
		{KindAdmit, []byte(`{"boundary":3}`)},
		{KindDrain, []byte{}},
	}
	for _, r := range records {
		if err := j.Append(r[0].(byte), r[1].([]byte)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the old records must scan back, and appends must continue.
	j2, scan2, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan2.Records) != len(records) {
		t.Fatalf("reopen scan found %d records, want %d", len(scan2.Records), len(records))
	}
	for i, r := range records {
		got := scan2.Records[i]
		if got.Kind != r[0].(byte) || !bytes.Equal(got.Body, r[1].([]byte)) {
			t.Errorf("record %d = kind %d body %q", i, got.Kind, got.Body)
		}
	}
	if err := j2.Append(KindSnapshot, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	scan3, err := ScanFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(scan3.Records); n != len(records)+1 {
		t.Fatalf("final scan found %d records, want %d", n, len(records)+1)
	}
}

// TestJournalAppendFramesInOneBuffer pins a record's bytes — length and
// CRC-32C of the payload, then kind, epoch and body — and Append's
// allocations: the framed record and the channel that replaces the one it
// closes to wake tailing readers, nothing else.
func TestJournalAppendFramesInOneBuffer(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	body := []byte("a step record body")
	if err := j.Append(KindStep, body); err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint32([]byte{KindStep}, 1)
	payload = append(payload, body...)
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, castagnoli))
	want = append(want, payload...)
	got, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("record bytes\n got %x\nwant %x", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := j.Append(KindStep, body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("Append allocates %v times per record, want 2", allocs)
	}
}

// TestJournalTornTail pins crash semantics: a partial record at the tail is
// detected, reported, and truncated away on reopen; the clean prefix
// survives.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(KindHeader, []byte("hdr"))
	j.Append(KindSubmit, []byte("sub"))
	j.Close()
	path := filepath.Join(dir, JournalFile)
	clean, _ := os.ReadFile(path)

	// Simulate every possible torn write of a third record.
	var e [8]byte
	payload := append([]byte{KindAdmit}, []byte("admit-body")...)
	binary.LittleEndian.PutUint32(e[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e[4:8], 0xdeadbeef) // wrong CRC too
	full := append(append([]byte{}, e[:]...), payload...)
	for cut := 1; cut <= len(full); cut++ {
		if err := os.WriteFile(path, append(append([]byte{}, clean...), full[:cut]...), 0o666); err != nil {
			t.Fatal(err)
		}
		j2, scan, err := Open(dir, SyncNever)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(scan.Records) != 2 {
			t.Fatalf("cut %d: %d clean records, want 2", cut, len(scan.Records))
		}
		if scan.TruncatedBytes != int64(cut) {
			t.Fatalf("cut %d: truncated %d bytes", cut, scan.TruncatedBytes)
		}
		// The reopened journal must have physically dropped the tail and
		// accept new appends cleanly.
		if err := j2.Append(KindDrain, nil); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		scan2, err := ScanFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(scan2.Records) != 3 || scan2.TruncatedBytes != 0 {
			t.Fatalf("cut %d: post-repair scan %d records, %d truncated",
				cut, len(scan2.Records), scan2.TruncatedBytes)
		}
		// Restore the two-record prefix for the next iteration.
		if err := os.WriteFile(path, clean, 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalBitFlip pins that a checksum catches payload corruption: the
// scan stops at the flipped record rather than returning corrupt bytes.
func TestJournalBitFlip(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(KindHeader, []byte("one"))
	j.Append(KindSubmit, []byte("two"))
	j.Append(KindAdmit, []byte("three"))
	j.Close()
	path := filepath.Join(dir, JournalFile)
	clean, _ := os.ReadFile(path)

	// Flip one bit in the *second* record's payload.
	off := 8 + 5 + len("one") + 8 + 5 // into "two"
	mut := append([]byte{}, clean...)
	mut[off] ^= 0x10
	scan := ScanBytes(mut)
	if len(scan.Records) != 1 {
		t.Fatalf("scan after bit flip kept %d records, want 1", len(scan.Records))
	}
	if scan.TruncatedBytes == 0 {
		t.Fatal("bit flip not reported as truncation")
	}
}

// TestJournalEpoch pins the epoch framing: appends are stamped with the
// journal's current epoch, SetEpoch is monotonic, AppendRecord preserves a
// shipped record's epoch verbatim (raising the journal's own), and a reopen
// resumes at the highest epoch on disk.
func TestJournalEpoch(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if j.Epoch() != 1 {
		t.Fatalf("fresh journal epoch = %d, want 1", j.Epoch())
	}
	j.Append(KindHeader, []byte("hdr"))
	j.SetEpoch(3)
	j.SetEpoch(2) // lower: ignored
	if j.Epoch() != 3 {
		t.Fatalf("epoch after SetEpoch(3), SetEpoch(2) = %d, want 3", j.Epoch())
	}
	j.Append(KindEpoch, []byte("promoted"))
	// A shipped record from a higher term raises the journal's epoch too.
	if err := j.AppendRecord(Record{Kind: KindStep, Epoch: 5, Body: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	if j.Epoch() != 5 {
		t.Fatalf("epoch after AppendRecord(epoch 5) = %d, want 5", j.Epoch())
	}
	j.Close()

	scan, err := ScanFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	wantEpochs := []uint32{1, 3, 5}
	if len(scan.Records) != len(wantEpochs) {
		t.Fatalf("scanned %d records, want %d", len(scan.Records), len(wantEpochs))
	}
	for i, want := range wantEpochs {
		if scan.Records[i].Epoch != want {
			t.Errorf("record %d epoch = %d, want %d", i, scan.Records[i].Epoch, want)
		}
	}
	j2, _, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Epoch() != 5 {
		t.Fatalf("reopened epoch = %d, want 5", j2.Epoch())
	}
}

// TestParseSyncPolicy pins the flag values.
func TestParseSyncPolicy(t *testing.T) {
	for _, ok := range []string{"", "always", "snapshot", "never"} {
		if _, err := ParseSyncPolicy(ok); err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", ok, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

// countingMetrics is a test Metrics sink recording every callback.
type countingMetrics struct {
	appends int
	bytes   int
	kinds   []byte
	syncs   int
}

func (m *countingMetrics) JournalAppend(kind byte, n int, _ time.Duration) {
	m.appends++
	m.bytes += n
	m.kinds = append(m.kinds, kind)
}

func (m *countingMetrics) JournalSync(_ time.Duration) { m.syncs++ }

func TestJournalLagAndMetrics(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var m countingMetrics
	j.SetMetrics(&m)

	body := []byte("payload")
	for i := 0; i < 3; i++ {
		if err := j.Append(KindSubmit, body); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Lag(); got != 3 {
		t.Fatalf("lag under SyncNever = %d, want 3", got)
	}
	if m.appends != 3 || m.syncs != 0 {
		t.Fatalf("appends=%d syncs=%d, want 3/0", m.appends, m.syncs)
	}
	// On-disk size per record: 8-byte header + kind + epoch + body.
	if want := 3 * (8 + 5 + len(body)); m.bytes != want {
		t.Fatalf("bytes = %d, want %d", m.bytes, want)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := j.Lag(); got != 0 {
		t.Fatalf("lag after Sync = %d, want 0", got)
	}
	if m.syncs != 1 {
		t.Fatalf("syncs = %d, want 1", m.syncs)
	}
	// A redundant Sync with no new bytes is a no-op, not another fsync.
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if m.syncs != 1 {
		t.Fatalf("redundant sync fsynced anyway: %d", m.syncs)
	}
}

func TestJournalLagByPolicy(t *testing.T) {
	// SyncAlways never accumulates lag.
	ja, _, err := Open(t.TempDir(), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer ja.Close()
	var ma countingMetrics
	ja.SetMetrics(&ma)
	if err := ja.Append(KindSubmit, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if ja.Lag() != 0 || ma.syncs != 1 {
		t.Fatalf("SyncAlways lag=%d syncs=%d, want 0/1", ja.Lag(), ma.syncs)
	}
	// SyncSnapshot accumulates until a snapshot record flushes the debt.
	js, _, err := Open(t.TempDir(), SyncSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	if err := js.Append(KindSubmit, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := js.Append(KindAdmit, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := js.Lag(); got != 2 {
		t.Fatalf("SyncSnapshot pre-snapshot lag = %d, want 2", got)
	}
	if err := js.Append(KindSnapshot, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if got := js.Lag(); got != 0 {
		t.Fatalf("SyncSnapshot post-snapshot lag = %d, want 0", got)
	}
}
