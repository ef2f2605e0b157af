package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"provcompress/internal/raceflag"
)

// replayWALUnbuffered is the reader replayWAL replaced: two read calls
// per record straight from the file and a fresh payload slice each. It is
// kept here as the oracle the buffered reader must match.
func replayWALUnbuffered(path string, fn func(rec []byte) error) (records int, torn bool, tornBytes int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, false, 0, nil
	}
	if err != nil {
		return 0, false, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, 0, err
	}
	size := fi.Size()
	var off int64
	var hdr [walHeaderSize]byte
	for {
		_, err := io.ReadFull(f, hdr[:])
		if err == io.EOF {
			return records, false, 0, nil
		}
		if err == io.ErrUnexpectedEOF {
			return records, true, size - off, nil
		}
		if err != nil {
			return records, false, 0, err
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxWALRecord {
			return records, true, size - off, nil
		}
		if int64(n) > size-off-walHeaderSize {
			return records, true, size - off, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, true, size - off, nil
			}
			return records, false, 0, err
		}
		if crc32.Checksum(payload, crcTable) != want {
			return records, true, size - off, nil
		}
		if err := fn(payload); err != nil {
			return records, false, 0, err
		}
		off += walHeaderSize + int64(n)
		records++
	}
}

// replayResult is everything one replay reports, with copies of the
// records it handed to its callback.
type replayResult struct {
	records   int
	torn      bool
	tornBytes int64
	recs      [][]byte
}

func replayWith(t *testing.T, replay func(string, func([]byte) error) (int, bool, int64, error), path string) replayResult {
	t.Helper()
	var r replayResult
	var err error
	r.records, r.torn, r.tornBytes, err = replay(path, func(rec []byte) error {
		r.recs = append(r.recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplayWALMatchesUnbuffered replays intact and damaged logs through
// the buffered reader and the unbuffered oracle. The records straddle the
// 64 KiB read buffer in every way (empty, one byte, just under, at and
// just over the buffer, about 1 MiB); the damage is a tail torn at every
// byte of the last header and at payload offsets around the buffer's
// edges, a record in the middle whose checksum fails, and one whose length
// is implausible. Both readers must report the same record count, tear and
// torn bytes, and hand over the same record bytes.
func TestReplayWALMatchesUnbuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rec := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	sizes := []int{0, 1, replayBufSize - 1, replayBufSize, replayBufSize + 1, 1<<20 + 13}
	layouts := map[string][][]byte{}
	var ascending, mixed [][]byte
	for _, n := range sizes {
		ascending = append(ascending, rec(n), rec(37)) // a small record after each, so headers fall mid-buffer
	}
	ascending = append(ascending, rec(1<<20+13)) // the last record is the large one
	for i := len(sizes) - 1; i >= 0; i-- {
		mixed = append(mixed, rec(sizes[i]))
	}
	mixed = append(mixed, rec(1)) // the last record is a single byte
	layouts["ascending"] = ascending
	layouts["descending"] = mixed

	for name, recs := range layouts {
		full := walBytes(t, recs)
		last := recs[len(recs)-1]
		boundary := len(full) - walHeaderSize - len(last) // where the last record starts
		cases := map[string][]byte{"intact": full}
		for k := 0; k <= walHeaderSize; k++ {
			cases[fmt.Sprintf("header-cut-%d", k)] = full[:boundary+k]
		}
		for _, off := range []int{1, 4095, replayBufSize - 1, replayBufSize, replayBufSize + 1, len(last) - 1} {
			if off > 0 && off < len(last) {
				cases[fmt.Sprintf("payload-cut-%d", off)] = full[:boundary+walHeaderSize+off]
			}
		}
		// Damage the middle record: once in its payload's checksum, once
		// in its length.
		mid := len(recs) / 2
		start := 0
		for _, r := range recs[:mid] {
			start += walHeaderSize + len(r)
		}
		crc := append([]byte(nil), full...)
		if len(recs[mid]) > 0 {
			crc[start+walHeaderSize+len(recs[mid])/2] ^= 0x5A
		} else {
			crc[start+4] ^= 0x5A
		}
		cases["crc-damaged-middle"] = crc
		length := append([]byte(nil), full...)
		binary.BigEndian.PutUint32(length[start:], maxWALRecord+1)
		cases["length-damaged-middle"] = length

		for cname, data := range cases {
			t.Run(name+"/"+cname, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "x.log")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				want := replayWith(t, replayWALUnbuffered, path)
				got := replayWith(t, replayWAL, path)
				if got.records != want.records || got.torn != want.torn || got.tornBytes != want.tornBytes {
					t.Fatalf("buffered replay (records %d, torn %v, torn bytes %d), oracle (%d, %v, %d)",
						got.records, got.torn, got.tornBytes, want.records, want.torn, want.tornBytes)
				}
				if len(got.recs) != len(want.recs) {
					t.Fatalf("buffered replay handed over %d records, oracle %d", len(got.recs), len(want.recs))
				}
				for i := range want.recs {
					if !bytes.Equal(got.recs[i], want.recs[i]) {
						t.Fatalf("record %d: buffered replay handed over %d bytes unlike the oracle's %d", i, len(got.recs[i]), len(want.recs[i]))
					}
				}
				if cname == "intact" && (want.torn || want.records != len(recs)) {
					t.Fatalf("oracle replayed %d of %d records of an intact log (torn %v)", want.records, len(recs), want.torn)
				}
			})
		}
	}
}

// TestReplayWALAllocs checks that replay's allocations do not grow with
// the log: reading through one buffer into one reused payload buffer, a
// log of 1 024 records costs what a log of 16 does.
func TestReplayWALAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(n int) float64 {
		recs := make([][]byte, n)
		for i := range recs {
			recs[i] = bytes.Repeat([]byte{byte(i)}, 200)
		}
		path := filepath.Join(t.TempDir(), "a.log")
		if err := os.WriteFile(path, walBytes(t, recs), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			got, torn, _, err := replayWAL(path, func([]byte) error { return nil })
			if err != nil || torn || got != n {
				t.Fatalf("replayed %d of %d records (torn %v): %v", got, n, torn, err)
			}
		})
	}
	small, large := allocs(16), allocs(1024)
	if large != small {
		t.Errorf("replaying 1024 records allocates %.0f times, 16 records %.0f: replay allocates per record", large, small)
	}
}
