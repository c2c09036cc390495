package server

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"abg/internal/persist"
)

// manualDaemon boots a journaled daemon whose quantum clock never starts:
// the test steps it by hand, so its journal is a pure function of the calls
// the test makes.
func manualDaemon(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Kill)
	return s
}

// submitOK normalizes req and runs it through the admission path.
func submitOK(t testing.TB, s *Server, req JobRequest) {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SubmitLocal(req, ""); err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
}

// stepN admits the queue and executes up to n quantum boundaries.
func stepN(s *Server, n int) {
	for range n {
		s.StepExternal(false)
	}
}

// writePromotedJournal writes, in dir, the journal of a follower promoted
// mid-run: a leader journaling in leaderDir serves a named two-job request
// and two more, the follower applies the leader's journal, is promoted
// (its epoch record), and serves two more requests, the last of them
// acked after its final step. testdata/journal-v1-promoted.wal is what it
// wrote in format 1.
func writePromotedJournal(t testing.TB, leaderDir, dir string) {
	t.Helper()
	cfg := replCfg(leaderDir, "")
	cfg.SnapshotEvery = 3
	l := manualDaemon(t, cfg)
	submitOK(t, l, JobRequest{Kind: "batch", Name: "x", Count: 2, Seed: 21, Key: "x"})
	submitOK(t, l, JobRequest{Kind: "fullPar", Width: 4, Quanta: 12, Key: "a"})
	stepN(l, 5)
	submitOK(t, l, JobRequest{Kind: "adversarial", Width: 5, Quanta: 6, Name: "adv"})
	stepN(l, 3)
	scan, err := persist.ScanFile(filepath.Join(leaderDir, persist.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := replCfg(dir, "")
	fcfg.SnapshotEvery = 3
	fcfg.FollowURL = "http://127.0.0.1:1"
	fcfg.Advertise = "http://127.0.0.1:18234"
	f := manualDaemon(t, fcfg)
	for _, rec := range scan.Records {
		if err := f.applyShipped(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Promote("test"); err != nil {
		t.Fatal(err)
	}
	f.sealPromotion()
	submitOK(t, f, JobRequest{Kind: "serial", Quanta: 5, Key: "s"})
	stepN(f, 2)
	submitOK(t, f, JobRequest{Kind: "batch", Count: 3, Seed: 40, Key: "y"})
}

// writeDrainedJournal writes, in dir, the journal of a faulted daemon that
// serves four requests, one of them named with two jobs, and journals a
// drain after the last; its run stops right after the drain admitted the
// queue. testdata/journal-v1-drained.wal is what it wrote in format 1.
func writeDrainedJournal(t testing.TB, dir string) {
	t.Helper()
	cfg := replCfg(dir, "restart=0.3,restartat=1,maxrestarts=2,drop=0.2,cap=churn:0.5:4,seed=5")
	cfg.SnapshotEvery = 3
	s := manualDaemon(t, cfg)
	submitOK(t, s, JobRequest{Kind: "batch", Name: "x", Count: 2, Seed: 31, Key: "x"})
	submitOK(t, s, JobRequest{Kind: "fullPar", Width: 3, Quanta: 10, Key: "b"})
	stepN(s, 4)
	submitOK(t, s, JobRequest{Kind: "batch", Seed: 32, Key: "c"})
	stepN(s, 1)
	submitOK(t, s, JobRequest{Kind: "serial", Quanta: 6, Name: "tail"})
	s.Drain()
	s.DrainEngine()
}

// format1Fixture is one journal written in format 1 (testdata/README.md),
// with the configuration a daemon recovers it under.
type format1Fixture struct {
	name  string
	fault string
	shard bool // a 2-shard cluster's shard: its step records carry shares
}

var format1Fixtures = []format1Fixture{
	{name: "promoted"},
	{name: "drained", fault: "restart=0.3,restartat=1,maxrestarts=2,drop=0.2,cap=churn:0.5:4,seed=5"},
	{name: "shard", shard: true},
}

func (fx format1Fixture) config(dir string) Config {
	cfg := replCfg(dir, fx.fault)
	cfg.SnapshotEvery = 3
	if fx.shard {
		cfg.Capacity = NewShareTable(cfg.P, nil)
	}
	return cfg
}

func readWAL(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRecoveryFromFormat1Journal recovers daemons from journals a build of
// format 1 wrote (testdata/journal-v1-*.wal). For each one:
//   - a follower that applies its bytes holds a byte-identical journal and
//     the recovered daemon's statuses and idempotency keys;
//   - a re-POST of its named two-job request's key answers duplicate with
//     the original ids (the drained one answers the retry by SubmitLocal,
//     before it starts, since a started one finishes its drain at once);
//   - the recovered daemon, continuing the journal in format 2, runs on to
//     ReferenceResult's statuses.
func TestRecoveryFromFormat1Journal(t *testing.T) {
	for _, fx := range format1Fixtures {
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			wal := readWAL(t, "journal-v1-"+fx.name+".wal")
			records := persist.ScanBytes(wal).Records
			lg, err := parseJournal(records)
			if err != nil {
				t.Fatal(err)
			}
			if v := records[0].Body[0]; v != 1 {
				t.Fatalf("fixture header is format %d", v)
			}
			kinds := map[byte]int{}
			for _, rec := range records {
				kinds[rec.Kind]++
			}
			var x submitRecord
			submitted := 0
			for _, sub := range lg.submits {
				if sub.req.Key == "x" {
					x = sub
				}
				submitted += sub.req.Count
			}
			switch {
			case kinds[persist.KindSubmit] != 0 || kinds[persist.KindSubmitV1] == 0:
				t.Fatalf("fixture records by kind %v, want format-1 submits only", kinds)
			case x.req.Name != "x" || x.req.Count != 2:
				t.Fatalf("fixture request x = %+v, want named x with two jobs", x.req)
			case fx.name == "promoted" && kinds[persist.KindEpoch] != 1,
				fx.name == "drained" && kinds[persist.KindDrain] != 1,
				fx.shard != (len(lg.shares) > 0):
				t.Fatalf("fixture records by kind %v, %d step shares", kinds, len(lg.shares))
			}
			want := []int{x.firstID, x.firstID + 1}

			fdir := t.TempDir()
			fcfg := fx.config(fdir)
			fcfg.FollowURL = "http://127.0.0.1:1"
			f := manualDaemon(t, fcfg)
			for i, rec := range records {
				if err := f.applyShipped(rec); err != nil {
					t.Fatalf("follower record %d: %v", i, err)
				}
			}
			if got, err := os.ReadFile(filepath.Join(fdir, persist.JournalFile)); err != nil || !bytes.Equal(got, wal) {
				t.Fatalf("follower journal is %d bytes (%v), the fixture %d, or differs", len(got), err, len(wal))
			}

			cfg := fx.config(t.TempDir())
			if err := os.WriteFile(filepath.Join(cfg.JournalDir, persist.JournalFile), wal, 0o666); err != nil {
				t.Fatal(err)
			}
			cfg.Addr = "127.0.0.1:0"
			r, err := New(cfg)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			t.Cleanup(r.Kill)
			if got, fol := r.JobStatuses(), f.JobStatuses(); !reflect.DeepEqual(got, fol) {
				t.Fatalf("recovered statuses differ from the follower's:\n recovered %+v\n follower  %+v", got, fol)
			}
			keys := r.IdemKeys()
			if !reflect.DeepEqual(keys, f.IdemKeys()) || !reflect.DeepEqual(keys["x"], want) {
				t.Fatalf("recovered keys %v, follower's %v; want x -> %v", keys, f.IdemKeys(), want)
			}
			if fx.name == "drained" {
				req := JobRequest{Key: "x"}
				if err := req.Normalize(); err != nil {
					t.Fatal(err)
				}
				if ack, code, err := r.SubmitLocal(req, ""); code != http.StatusOK || ack.State != "duplicate" || !reflect.DeepEqual(ack.IDs, want) {
					t.Fatalf("retry of key x while draining: %d %+v (%v), want 200 duplicate of %v", code, ack, err, want)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			if err := r.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if fx.name != "drained" {
				code, ack, bad := postJobs(t, "http://"+r.Addr(), JobRequest{Kind: "batch", Key: "x"})
				if code != http.StatusOK || ack.State != "duplicate" || !reflect.DeepEqual(ack.IDs, want) {
					t.Fatalf("re-POST of key x: %d %+v (%q), want 200 duplicate of %v", code, ack, bad.Error, want)
				}
			}
			live := finishRun(t, r)
			ref, err := ReferenceResult(cfg.JournalDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) != submitted || !reflect.DeepEqual(live, ref) {
				t.Fatalf("recovered run diverged from the reference:\n live %+v\n ref  %+v", live, ref)
			}
		})
	}
}

// TestFormat2ChangesOnlySubmitRecords writes the format-1 fixtures' runs
// again. Apart from the header's version byte, the journals must differ from
// what format 1 wrote only in the submit records' kind and body, and each
// binary submit must decode to the request its JSON one held: the same
// records in the same order, every other body byte-identical. The promoted
// run's journal is also kept as testdata/journal-v2-promoted.wal (rewritten
// with -update), the format-2 seed of persist's FuzzScanBytes.
func TestFormat2ChangesOnlySubmitRecords(t *testing.T) {
	root := t.TempDir()
	writePromotedJournal(t, filepath.Join(root, "leader"), filepath.Join(root, "promoted"))
	writeDrainedJournal(t, filepath.Join(root, "drained"))
	for _, name := range []string{"promoted", "drained"} {
		raw, err := os.ReadFile(filepath.Join(root, name, persist.JournalFile))
		if err != nil {
			t.Fatal(err)
		}
		v1 := persist.ScanBytes(readWAL(t, "journal-v1-"+name+".wal")).Records
		v2 := persist.ScanBytes(raw).Records
		if len(v2) != len(v1) {
			t.Fatalf("%s: %d records, format 1 wrote %d", name, len(v2), len(v1))
		}
		for i, rec := range v2 {
			old := v1[i]
			switch {
			case rec.Epoch != old.Epoch:
				t.Fatalf("%s record %d: epoch %d, format 1 %d", name, i, rec.Epoch, old.Epoch)
			case old.Kind == persist.KindSubmitV1:
				want, err := decodeSubmit(old.Kind, old.Body)
				if err != nil {
					t.Fatal(err)
				}
				got, err := decodeSubmit(rec.Kind, rec.Body)
				if rec.Kind != persist.KindSubmit || err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s record %d: kind %d %+v (%v), format 1 wrote %+v", name, i, rec.Kind, got, err, want)
				}
			case rec.Kind != old.Kind:
				t.Fatalf("%s record %d: kind %s, format 1 %s", name, i, persist.KindName(rec.Kind), persist.KindName(old.Kind))
			case old.Kind == persist.KindHeader:
				if rec.Body[0] != 2 || old.Body[0] != 1 || !bytes.Equal(rec.Body[1:], old.Body[1:]) {
					t.Fatalf("%s header %x, format 1 wrote %x", name, rec.Body, old.Body)
				}
			case !bytes.Equal(rec.Body, old.Body):
				t.Fatalf("%s %s record %d differs from format 1's", name, persist.KindName(rec.Kind), i)
			}
		}
		if name != "promoted" {
			continue
		}
		golden := filepath.Join("testdata", "journal-v2-promoted.wal")
		if *update {
			if err := os.WriteFile(golden, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want := readWAL(t, "journal-v2-promoted.wal"); !bytes.Equal(raw, want) {
			t.Fatalf("promoted run's journal differs from %s (go test -run %s -update rewrites it)", golden, t.Name())
		}
	}
}

// TestJournalRefusesUnknownFormat: a journal whose header carries a format
// this build does not know is refused at boot, before any record is read,
// and a follower shipped a record of a kind it does not know fails rather
// than skipping it.
func TestJournalRefusesUnknownFormat(t *testing.T) {
	h := encodeHeader(replCfgHeader(t))
	if h[0] != 2 {
		t.Fatalf("this build writes format %d", h[0])
	}
	h[0] = 3
	if _, err := decodeHeader(h); err == nil || !strings.Contains(err.Error(), "journal format version 3, this build reads 1 to 2") {
		t.Fatalf("format-3 header: %v", err)
	}
	dir := t.TempDir()
	j, _, err := persist.Open(dir, persist.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(persist.KindHeader, h); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := New(replCfg(dir, "")); err == nil || !strings.Contains(err.Error(), "this build reads 1 to 2") {
		t.Fatalf("boot on a format-3 journal: %v", err)
	}

	cfg := replCfg(t.TempDir(), "")
	cfg.FollowURL = "http://127.0.0.1:1"
	f := manualDaemon(t, cfg)
	if err := f.applyShipped(persist.Record{Kind: persist.KindHeader, Epoch: 1, Body: encodeHeader(replCfgHeader(t))}); err != nil {
		t.Fatal(err)
	}
	err = f.applyShipped(persist.Record{Kind: 9, Epoch: 1, Body: []byte{1}})
	if err == nil || !strings.Contains(err.Error(), "unknown record kind 9") || f.Fatal() == nil {
		t.Fatalf("shipped kind-9 record: %v (fatal %v), want the follower to fail", err, f.Fatal())
	}
}

// replCfgHeader is the header record a daemon booted with replCfg writes.
func replCfgHeader(t *testing.T) headerRecord {
	t.Helper()
	return manualDaemon(t, replCfg(t.TempDir(), "")).headerRecord()
}

// FuzzSubmitRecord pins the submit codec:
//   - every request Normalize accepts round-trips through encodeSubmit and
//     decodeSubmit exactly, key and count included;
//   - neither decoder panics on arbitrary bytes;
//   - a body the binary decoder accepts re-encodes to the same bytes, and a
//     format-1 body the JSON decoder accepts converts to format 2 without
//     loss.
func FuzzSubmitRecord(f *testing.F) {
	for _, name := range []string{"journal-v1-promoted.wal", "journal-v1-drained.wal", "journal-v1-shard.wal", "journal-v2-promoted.wal"} {
		for _, rec := range persist.ScanBytes(readWAL(f, name)).Records {
			if persist.KindName(rec.Kind) == "submit" {
				f.Add(uint32(0), "", uint8(0), 0, 0, 0, 0, uint64(0), 0, "", rec.Body)
			}
		}
	}
	// A body whose count varint is one byte longer than it needs to be.
	body := encodeSubmit(submitRecord{firstID: 3, req: JobRequest{Kind: "batch", Count: 2, Key: "k"}})
	long := append([]byte{body[0], body[1] | 0x80, 0}, body[2:]...)
	f.Add(uint32(7), "x", uint8(2), 0, 0, 0, 0, uint64(21), 2, "x", long)
	f.Add(uint32(1<<30), strings.Repeat("n", maxNameLen), uint8(3), maxWidth, maxQuanta, maxCL, 1<<10, ^uint64(0), MaxCount, strings.Repeat("k", maxKeyLen), []byte{0x80, 0x00})
	kinds := []string{"fullPar", "serial", "batch", "adversarial", "", "Batch "}
	f.Fuzz(func(t *testing.T, id uint32, name string, kind uint8, width, quanta, cl, shrink int,
		seed uint64, count int, key string, raw []byte) {
		req := JobRequest{Name: name, Kind: kinds[int(kind)%len(kinds)], Width: width, Quanta: quanta,
			CL: cl, Shrink: shrink, Seed: seed, Count: count, Key: key}
		if req.Normalize() == nil {
			rec := submitRecord{firstID: int(id >> 1), req: req}
			got, err := decodeSubmit(persist.KindSubmit, encodeSubmit(rec))
			if err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("%+v decodes to %+v (%v)", rec, got, err)
			}
		}
		if rec, err := decodeSubmit(persist.KindSubmit, raw); err == nil {
			if again := encodeSubmit(rec); !bytes.Equal(again, raw) {
				t.Fatalf("accepted body %x re-encodes to %x", raw, again)
			}
		}
		if rec, err := decodeSubmit(persist.KindSubmitV1, raw); err == nil {
			got, err := decodeSubmit(persist.KindSubmit, encodeSubmit(rec))
			if err != nil || !reflect.DeepEqual(got, rec) {
				t.Fatalf("format-1 record %+v converts to %+v (%v)", rec, got, err)
			}
		}
	})
}
