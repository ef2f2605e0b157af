package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// walBytes is the log file wal.append writes for recs.
func walBytes(tb testing.TB, recs [][]byte) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "out.log")
	w, err := openWAL(path, SyncOff)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := w.append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// snapBytes is the snapshot file writeSnapshotFile writes for payload.
func snapBytes(tb testing.TB, payload []byte) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if err := writeSnapshotFile(dir, 1, payload); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath(dir, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// writeInput stores a fuzz input as a file named name and returns its path.
func writeInput(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzReplayWAL replays arbitrary bytes as a log file. Replay never
// panics and hands back only records whose checksum verified, and it
// reports a torn tail exactly when bytes are left over: re-appending the
// records it returned reproduces the file up to the tear.
func FuzzReplayWAL(f *testing.F) {
	valid := walBytes(f, testRecords(3))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:walHeaderSize-2])
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderSize+1] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Add(make([]byte, walHeaderSize)) // an empty record: the CRC-32C of nothing is 0
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		n, torn, tornBytes, err := replayWAL(writeInput(t, "in.log", data), func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(recs) {
			t.Fatalf("replay counted %d records and handed back %d", n, len(recs))
		}
		if tornBytes < 0 || tornBytes > int64(len(data)) || torn != (tornBytes > 0) {
			t.Fatalf("torn=%v with %d torn bytes of %d", torn, tornBytes, len(data))
		}
		kept := data[:int64(len(data))-tornBytes]
		if again := walBytes(t, recs); !bytes.Equal(again, kept) {
			t.Fatalf("re-appending the %d replayed records gives\n%x\nnot the file up to the tear\n%x", n, again, kept)
		}
	})
}

// FuzzReadSnapshotFile loads arbitrary bytes as a snapshot file. The
// loader never panics, and a payload it accepts is written back by
// writeSnapshotFile as exactly the same file.
func FuzzReadSnapshotFile(f *testing.F) {
	valid := snapBytes(f, []byte("partition snapshot payload"))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:snapHeaderSize])
	f.Add(valid[:snapHeaderSize-1])
	for _, at := range []int{0, snapHeaderSize} { // the magic, the payload
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0x01
		f.Add(flipped)
	}
	f.Add(snapBytes(f, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readSnapshotFile(writeInput(t, "in.snap", data))
		if err != nil {
			return
		}
		if again := snapBytes(t, payload); !bytes.Equal(again, data) {
			t.Fatalf("accepted snapshot re-writes differently:\n in %x\nout %x", data, again)
		}
	})
}
