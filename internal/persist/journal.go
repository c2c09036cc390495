package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// JournalFile is the file name the journal lives under inside its directory.
const JournalFile = "abgd.wal"

// maxRecordLen bounds a single record so a corrupt length prefix cannot make
// a reader attempt a multi-gigabyte allocation. Snapshots of very large job
// sets are the biggest records; 1 GiB is far above any realistic one.
const maxRecordLen = 1 << 30

// castagnoli is the CRC32-C table used for every record checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when the journal fsyncs.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every appended record: an acknowledged
	// submission survives even a kernel or power crash.
	SyncAlways SyncPolicy = "always"
	// SyncSnapshot fsyncs only after snapshot records; other records reach
	// the OS page cache immediately (surviving process death) but may be
	// lost to a machine crash.
	SyncSnapshot SyncPolicy = "snapshot"
	// SyncNever never fsyncs explicitly; durability against machine crash
	// is left to the OS writeback. Process-death durability still holds.
	SyncNever SyncPolicy = "never"
)

// ParseSyncPolicy validates a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "", SyncAlways:
		return SyncAlways, nil
	case SyncSnapshot, SyncNever:
		return SyncPolicy(s), nil
	default:
		return "", fmt.Errorf("persist: unknown fsync policy %q (want always, snapshot or never)", s)
	}
}

// ScanResult reports what a journal scan found.
type ScanResult struct {
	// Records is the clean prefix of the journal, in order.
	Records []Record
	// CleanLen is the byte offset after the last whole record.
	CleanLen int64
	// TruncatedBytes is the length of the torn or corrupt tail beyond
	// CleanLen (zero for a clean journal).
	TruncatedBytes int64
}

// recordOverhead is the fixed per-record framing cost beyond the body: the
// 8-byte length/CRC header, the kind byte, and the 4-byte epoch.
const recordOverhead = 8 + 1 + 4

// ScanBytes decodes the record stream from an in-memory journal image. It
// never fails: a torn or corrupt tail terminates the scan and is reported
// in TruncatedBytes. Record bodies alias data.
func ScanBytes(data []byte) ScanResult {
	// Count the frames first, from their length prefixes alone, so the
	// records land in one allocation. The count is an upper bound: the
	// scan below also stops at the first checksum mismatch.
	frames := 0
	for off := 0; ; frames++ {
		n := frameLen(data[off:])
		if n == 0 {
			break
		}
		off += n
	}
	var res ScanResult
	if frames > 0 {
		res.Records = make([]Record, 0, frames)
	}
	off := 0
	for {
		n := frameLen(data[off:])
		if n == 0 {
			break
		}
		payload := data[off+8 : off+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		res.Records = append(res.Records, Record{
			Kind:  payload[0],
			Epoch: binary.LittleEndian.Uint32(payload[1:5]),
			Body:  payload[5:],
		})
		off += n
	}
	if len(res.Records) == 0 {
		res.Records = nil
	}
	res.CleanLen = int64(off)
	res.TruncatedBytes = int64(len(data) - off)
	return res
}

// frameLen returns the length of the whole frame (length and CRC header
// plus payload) at the start of rest, or 0 when rest does not start with a
// frame whose length is plausible and whose bytes are all present. The
// checksum is not verified.
func frameLen(rest []byte) int {
	if len(rest) < 8 {
		return 0
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	if n < 5 || n > maxRecordLen || uint64(len(rest)-8) < uint64(n) {
		return 0
	}
	return 8 + int(n)
}

// ScanFile reads and decodes the journal file at path. A missing file is an
// empty journal, not an error.
func ScanFile(path string) (ScanResult, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ScanResult{}, nil
	}
	if err != nil {
		return ScanResult{}, fmt.Errorf("persist: read journal: %w", err)
	}
	return ScanBytes(data), nil
}

// Metrics receives the journal's low-level I/O measurements. The journal
// calls it synchronously from the append path, so implementations must be
// cheap and concurrency-safe (atomic counters, not I/O). persist stays free
// of an obs dependency; the server layer adapts this interface onto its
// metric registry.
type Metrics interface {
	// JournalAppend reports one appended record: its kind byte, on-disk
	// size including the length/CRC header, and the write duration
	// (excluding any fsync).
	JournalAppend(kind byte, bytes int, d time.Duration)
	// JournalSync reports one fsync and its duration.
	JournalSync(d time.Duration)
}

// Journal is the append side of the write-ahead log. Appends are serialised
// internally, so HTTP handlers and the quantum-clock driver can share one
// Journal.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	policy  SyncPolicy
	path    string
	size    int64         // bytes of whole records on disk (the clean length)
	updated chan struct{} // closed and replaced after every append
	syncErr error         // test hook: forced fsync failure
	synced  bool          // no unsynced bytes since the last fsync
	lag     int           // records appended since the last fsync
	epoch   uint32        // leadership term stamped into appended records
	metrics Metrics
}

// Size returns the journal's clean length in bytes: the offset just past the
// last whole appended record. Replication ships the byte range [offset, Size)
// to followers, so this is the leader's replication high-water mark.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Updated returns a channel that is closed the next time a record is
// appended. Each append replaces the channel, so tailing readers re-fetch it
// after every wakeup:
//
//	for {
//		ch := j.Updated()
//		... stream bytes up to j.Size() ...
//		<-ch
//	}
func (j *Journal) Updated() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.updated
}

// FailSyncForTest forces every subsequent fsync to fail with err (nil
// restores normal behaviour). Test hook for exercising the drain-time
// sync-failure path; never set in production code.
func (j *Journal) FailSyncForTest(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncErr = err
}

// SetMetrics installs (or, with nil, removes) the I/O measurement sink.
func (j *Journal) SetMetrics(m Metrics) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.metrics = m
}

// Epoch returns the leadership term the journal currently stamps into
// appended records: the highest epoch scanned at Open, raised by SetEpoch at
// promotion or by AppendRecord when a shipped record carries a higher term.
func (j *Journal) Epoch() uint32 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// SetEpoch raises the journal's epoch. Lower values are ignored: within one
// journal the epoch is monotonic by construction.
func (j *Journal) SetEpoch(e uint32) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if e > j.epoch {
		j.epoch = e
	}
}

// Lag returns the number of records appended since the last successful
// fsync — the journal's durability debt. Zero under SyncAlways; under the
// laxer policies it is the count of acknowledged records a machine crash
// could lose, which /healthz compares against its configured ceiling.
func (j *Journal) Lag() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lag
}

// Open opens (creating if needed) the journal in dir for appending,
// truncating any torn tail left by a crash first. It returns the journal
// and the scan of the existing clean records, which recovery replays.
func Open(dir string, policy SyncPolicy) (*Journal, ScanResult, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, ScanResult{}, fmt.Errorf("persist: journal dir: %w", err)
	}
	path := filepath.Join(dir, JournalFile)
	scan, err := ScanFile(path)
	if err != nil {
		return nil, ScanResult{}, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o666)
	if err != nil {
		return nil, ScanResult{}, fmt.Errorf("persist: open journal: %w", err)
	}
	if scan.TruncatedBytes > 0 {
		if err := f.Truncate(scan.CleanLen); err != nil {
			f.Close()
			return nil, ScanResult{}, fmt.Errorf("persist: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(scan.CleanLen, io.SeekStart); err != nil {
		f.Close()
		return nil, ScanResult{}, fmt.Errorf("persist: seek journal end: %w", err)
	}
	epoch := uint32(1)
	for _, r := range scan.Records {
		if r.Epoch > epoch {
			epoch = r.Epoch
		}
	}
	j := &Journal{
		f:       f,
		policy:  policy,
		path:    path,
		size:    scan.CleanLen,
		updated: make(chan struct{}),
		synced:  true,
		epoch:   epoch,
	}
	return j, scan, nil
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Append writes one record (kind + body) stamped with the journal's current
// epoch, and applies the sync policy. The record is on disk — or at least in
// the OS page cache, surviving process death — when Append returns, so
// callers can acknowledge clients after it.
func (j *Journal) Append(kind byte, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(kind, j.epoch, body)
}

// AppendRecord re-appends a record decoded from a replication stream,
// preserving its framing epoch verbatim — a follower's journal must stay a
// byte copy of the leader's. A record carrying a higher epoch (the shipped
// KindEpoch of a promotion) raises the journal's own epoch with it.
func (j *Journal) AppendRecord(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Epoch > j.epoch {
		j.epoch = rec.Epoch
	}
	return j.appendLocked(rec.Kind, rec.Epoch, rec.Body)
}

func (j *Journal) appendLocked(kind byte, epoch uint32, body []byte) error {
	if j.f == nil {
		return fmt.Errorf("persist: journal closed")
	}
	// The record is framed in one buffer: the 8-byte header (payload
	// length and CRC), then the payload (kind, epoch, body). One write call
	// for header+payload keeps the torn-write window to a single record.
	rec := make([]byte, 8, 8+5+len(body))
	rec = append(rec, kind)
	rec = binary.LittleEndian.AppendUint32(rec, epoch)
	rec = append(rec, body...)
	payload := rec[8:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	var start time.Time
	if j.metrics != nil {
		start = time.Now()
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("persist: append: %w", err)
	}
	if j.metrics != nil {
		j.metrics.JournalAppend(kind, len(rec), time.Since(start))
	}
	j.size += int64(len(rec))
	close(j.updated)
	j.updated = make(chan struct{})
	j.synced = false
	j.lag++
	if j.policy == SyncAlways || (j.policy == SyncSnapshot && kind == KindSnapshot) {
		return j.syncLocked()
	}
	return nil
}

// Sync forces an fsync regardless of policy (used at clean shutdown).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.synced {
		return nil
	}
	if j.syncErr != nil {
		return fmt.Errorf("persist: fsync: %w", j.syncErr)
	}
	var start time.Time
	if j.metrics != nil {
		start = time.Now()
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("persist: fsync: %w", err)
	}
	if j.metrics != nil {
		j.metrics.JournalSync(time.Since(start))
	}
	j.synced = true
	j.lag = 0
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	// Wake tailing readers so they observe the closed journal instead of
	// blocking forever; no more appends will replace the channel.
	close(j.updated)
	return err
}
