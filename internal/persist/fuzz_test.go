package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanBytes throws arbitrary bytes — seeded with valid journals, torn
// tails, and bit flips — at the journal decoder. The contract under attack:
// the scan never panics, never over-reads, and either returns whole,
// checksum-verified records or reports the rest as truncation. Every clean
// record it does return must re-encode to exactly the bytes it came from
// (no silent misparse).
func FuzzScanBytes(f *testing.F) {
	// Seeds: journals as the daemon writes them, in format 2 and in format
	// 1 (see internal/server/testdata/README.md), cut and corrupted.
	valid := readServerJournal(f, "journal-v2-promoted.wal")
	f.Add(valid)
	f.Add(readServerJournal(f, "journal-v1-promoted.wal"))
	f.Add(valid[:len(valid)-3])           // torn tail
	f.Add(valid[:9])                      // mid-first-record
	f.Add([]byte{})                       // empty
	f.Add(bytes.Repeat([]byte{0xff}, 64)) // huge bogus length prefix
	flipped := append([]byte{}, valid...)
	flipped[12] ^= 0x40
	f.Add(flipped)
	// Mid-record truncations at every interesting cut of the second record:
	// inside its length/CRC header, exactly at the header/payload seam, and
	// one byte short of complete — the shapes a follower sees when it tails
	// the journal while the leader is mid-write.
	first := frameLen(valid)
	f.Add(valid[:first+3])  // inside second record's header
	f.Add(valid[:first+8])  // header complete, zero payload bytes
	f.Add(valid[:first+12]) // partial payload
	second := first + frameLen(valid[first:])
	f.Add(valid[:second-1]) // one byte short of a whole record
	f.Add(valid[:second+8]) // third record: header only

	f.Fuzz(func(t *testing.T, data []byte) {
		res := ScanBytes(data)
		if res.CleanLen+res.TruncatedBytes != int64(len(data)) {
			t.Fatalf("accounting broken: clean %d + truncated %d != len %d",
				res.CleanLen, res.TruncatedBytes, len(data))
		}
		if res.CleanLen < 0 || res.TruncatedBytes < 0 {
			t.Fatalf("negative lengths: %+v", res)
		}
		// Re-encoding the accepted records must reproduce the clean prefix
		// byte for byte: the scan may only ever accept what a writer wrote.
		var rebuilt []byte
		for _, r := range res.Records {
			payload := binary.LittleEndian.AppendUint32([]byte{r.Kind}, r.Epoch)
			payload = append(payload, r.Body...)
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
			rebuilt = append(rebuilt, hdr[:]...)
			rebuilt = append(rebuilt, payload...)
		}
		if !bytes.Equal(rebuilt, data[:res.CleanLen]) {
			t.Fatalf("clean prefix does not round-trip:\n got %x\nwant %x",
				rebuilt, data[:res.CleanLen])
		}
		if res.Records != nil && len(res.Records) == 0 {
			t.Fatal("an image with no whole record scans to empty, not nil, Records")
		}
	})
}

// FuzzStreamScanner feeds arbitrary bytes to the incremental stream decoder
// in fuzz-chosen chunk sizes, draining records after every chunk — the
// interleaved partial reads a follower performs while tailing a journal the
// leader is mid-write on. The contract: however the bytes are chunked, the
// scanner yields exactly the records the batch scan accepts, in order, and
// its offset lands exactly on the clean-prefix length. Corruption may turn
// into a sticky error (stricter than ScanBytes), but never into a wrong or
// extra record.
func FuzzStreamScanner(f *testing.F) {
	valid := readServerJournal(f, "journal-v2-promoted.wal")
	f.Add(valid, uint8(1))
	f.Add(valid, uint8(3))
	f.Add(valid, uint8(255))
	f.Add(valid[:len(valid)-5], uint8(2)) // mid-record truncation
	flipped := append([]byte{}, valid...)
	flipped[12] ^= 0x40
	f.Add(flipped, uint8(4)) // corrupt payload → sticky error
	f.Add([]byte{}, uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		want := ScanBytes(data)
		s := NewStreamScanner(0)
		var got []Record
		var streamErr error
		step := int(chunk)%17 + 1
		for i := 0; i < len(data) && streamErr == nil; i += step {
			end := i + step
			if end > len(data) {
				end = len(data)
			}
			s.Feed(data[i:end])
			for {
				rec, ok, err := s.Next()
				if err != nil {
					streamErr = err
					break
				}
				if !ok {
					break
				}
				got = append(got, rec)
			}
		}
		if len(got) > len(want.Records) {
			t.Fatalf("stream yielded %d records, batch scan only %d", len(got), len(want.Records))
		}
		for i, r := range got {
			w := want.Records[i]
			if r.Kind != w.Kind || !bytes.Equal(r.Body, w.Body) {
				t.Fatalf("record %d diverges: stream (%d, %x) vs batch (%d, %x)",
					i, r.Kind, r.Body, w.Kind, w.Body)
			}
		}
		if streamErr == nil {
			if len(got) != len(want.Records) {
				t.Fatalf("stream yielded %d records without error, batch scan %d", len(got), len(want.Records))
			}
			if s.Offset() != want.CleanLen {
				t.Fatalf("stream offset %d, batch clean length %d", s.Offset(), want.CleanLen)
			}
			if s.Buffered() != int(want.TruncatedBytes) {
				t.Fatalf("stream buffered %d, batch truncated %d", s.Buffered(), want.TruncatedBytes)
			}
		}
		// After a sticky error every further call must keep failing and
		// yield nothing.
		if streamErr != nil {
			s.Feed(valid)
			if _, ok, err := s.Next(); ok || err == nil {
				t.Fatalf("scanner recovered after sticky error: ok=%v err=%v", ok, err)
			}
		}
	})
}

// readServerJournal reads a journal the daemon wrote from the server
// package's test data.
func readServerJournal(f *testing.F, name string) []byte {
	raw, err := os.ReadFile(filepath.Join("..", "server", "testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// encodeJournal builds a journal image from (kind, body) pairs, all framed
// under epoch 1.
func encodeJournal(records [][2]any) []byte {
	var out []byte
	for _, r := range records {
		payload := binary.LittleEndian.AppendUint32([]byte{r[0].(byte)}, 1)
		payload = append(payload, r[1].([]byte)...)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		out = append(out, hdr[:]...)
		out = append(out, payload...)
	}
	return out
}
