package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provcompress/internal/raceflag"
)

// openCollecting opens dir and collects what recovery hands back.
func openCollecting(t *testing.T, dir string, opts Options) (*NodeStore, [][]byte, []byte) {
	t.Helper()
	var recs [][]byte
	var snap []byte
	ns, err := Open(dir, opts,
		func(payload []byte) error {
			snap = append([]byte(nil), payload...)
			return nil
		},
		func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return ns, recs, snap
}

// testRecords builds n records of varied sizes, each with distinguishable
// content.
func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		rec := []byte(fmt.Sprintf("record-%03d:", i))
		for len(rec) < 11+i*7%90 {
			rec = append(rec, byte(i))
		}
		recs[i] = rec
	}
	return recs
}

func appendAll(t *testing.T, ns *NodeStore, recs [][]byte) {
	t.Helper()
	for _, rec := range recs {
		if _, err := ns.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreReplayRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Fsync: policy, FsyncInterval: time.Millisecond}
			ns, _, _ := openCollecting(t, dir, opts)
			want := testRecords(100)
			appendAll(t, ns, want)
			st := ns.Stats()
			if st.WALRecords != 100 {
				t.Errorf("WALRecords = %d, want 100", st.WALRecords)
			}
			if err := ns.Close(); err != nil {
				t.Fatal(err)
			}

			ns2, got, snap := openCollecting(t, dir, opts)
			defer ns2.Close()
			if snap != nil {
				t.Error("restore called with no snapshot on disk")
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if string(got[i]) != string(want[i]) {
					t.Fatalf("record %d diverged after replay", i)
				}
			}
			rec := ns2.Stats().Recovery
			if rec.ReplayedRecords != 100 || rec.TornRecords != 0 || rec.SnapshotLoaded {
				t.Errorf("recovery = %+v, want 100 replayed, clean", rec)
			}
		})
	}
}

// TestStoreTornTailCorpus is the crash-mid-append property: for EVERY
// possible truncation point inside the final record — one byte into the
// header through one byte short of complete — recovery must replay
// exactly the preceding records and flag one torn tail. A flipped payload
// byte (torn by checksum, not by length) must behave the same.
func TestStoreTornTailCorpus(t *testing.T) {
	master := t.TempDir()
	ns, _, _ := openCollecting(t, master, Options{Fsync: SyncOff})
	recs := testRecords(5)
	appendAll(t, ns, recs)
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(master, "*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want exactly one log file, have %v (%v)", logs, err)
	}
	full, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	boundary := len(full) - walHeaderSize - len(recs[4]) // end of record 4

	check := func(t *testing.T, contents []byte) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(logs[0])), contents, 0o644); err != nil {
			t.Fatal(err)
		}
		ns, got, _ := openCollecting(t, dir, Options{Fsync: SyncOff})
		defer ns.Close()
		if len(got) != 4 {
			t.Fatalf("replayed %d records, want 4", len(got))
		}
		for i := 0; i < 4; i++ {
			if string(got[i]) != string(recs[i]) {
				t.Fatalf("record %d diverged", i)
			}
		}
		rec := ns.Stats().Recovery
		if rec.TornRecords != 1 {
			t.Errorf("TornRecords = %d, want 1", rec.TornRecords)
		}
		if rec.TornBytes <= 0 {
			t.Errorf("TornBytes = %d, want > 0", rec.TornBytes)
		}

		// The store must stay usable: new appends land in a fresh
		// generation and survive the next recovery alongside the old ones.
		if _, err := ns.Append([]byte("after-tear")); err != nil {
			t.Fatal(err)
		}
		if err := ns.Close(); err != nil {
			t.Fatal(err)
		}
		ns2, got2, _ := openCollecting(t, dir, Options{Fsync: SyncOff})
		defer ns2.Close()
		if len(got2) != 5 || string(got2[4]) != "after-tear" {
			t.Fatalf("post-tear recovery replayed %d records (last %q), want 5 ending in the new append",
				len(got2), got2[len(got2)-1])
		}
	}

	for cut := boundary + 1; cut < len(full); cut++ {
		t.Run(fmt.Sprintf("truncate-%d", cut), func(t *testing.T) {
			check(t, full[:cut])
		})
	}
	t.Run("corrupt-checksum", func(t *testing.T) {
		flipped := append([]byte(nil), full...)
		flipped[boundary+walHeaderSize+2] ^= 0xFF // a payload byte of record 5
		check(t, flipped)
	})
}

func TestStoreCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: SyncAlways}
	ns, _, _ := openCollecting(t, dir, opts)
	appendAll(t, ns, testRecords(3))
	payload := []byte("snapshot-state-after-3")
	if err := ns.Checkpoint(payload); err != nil {
		t.Fatal(err)
	}
	post := [][]byte{[]byte("post-snap-1"), []byte("post-snap-2")}
	appendAll(t, ns, post)
	st := ns.Stats()
	if st.Snapshots != 1 || st.SnapshotBytes != int64(len(payload)) {
		t.Errorf("stats after checkpoint = %+v", st)
	}
	if st.SnapshotAge < 0 {
		t.Errorf("SnapshotAge = %v, want >= 0 after a checkpoint", st.SnapshotAge)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}

	// The pre-checkpoint generation is gone; one snapshot + one log remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var nLog, nSnap int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".log":
			nLog++
		case ".snap":
			nSnap++
		}
	}
	if nLog != 1 || nSnap != 1 {
		t.Errorf("after checkpoint: %d logs, %d snapshots on disk; want 1 and 1", nLog, nSnap)
	}

	ns2, got, snap := openCollecting(t, dir, opts)
	defer ns2.Close()
	if string(snap) != string(payload) {
		t.Errorf("restored snapshot = %q, want %q", snap, payload)
	}
	if len(got) != 2 || string(got[0]) != "post-snap-1" || string(got[1]) != "post-snap-2" {
		t.Errorf("replayed %d records %q, want only the post-checkpoint pair", len(got), got)
	}
	rec := ns2.Stats().Recovery
	if !rec.SnapshotLoaded || rec.ReplayedRecords != 2 {
		t.Errorf("recovery = %+v, want snapshot + 2 replayed", rec)
	}
}

// TestStoreSnapshotEveryWantsCheckpoint pins the cooperative checkpoint
// contract: Append reports the threshold, the caller checkpoints.
func TestStoreSnapshotEveryWantsCheckpoint(t *testing.T) {
	ns, _, _ := openCollecting(t, t.TempDir(), Options{Fsync: SyncOff, SnapshotEvery: 3})
	defer ns.Close()
	wants := 0
	for i := 0; i < 7; i++ {
		want, err := ns.Append([]byte("r"))
		if err != nil {
			t.Fatal(err)
		}
		if want {
			wants++
			if err := ns.Checkpoint([]byte("s")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if wants != 2 { // records 3 and 6
		t.Errorf("wantSnapshot fired %d times over 7 appends with SnapshotEvery=3, want 2", wants)
	}
}

// TestStoreCorruptSnapshotSkipped: a snapshot that fails its checksum is
// not restored — recovery degrades rather than failing the boot.
func TestStoreCorruptSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	ns, _, _ := openCollecting(t, dir, Options{Fsync: SyncAlways})
	appendAll(t, ns, testRecords(2))
	if err := ns.Checkpoint([]byte("good-snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, have %v (%v)", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	ns2, got, snap := openCollecting(t, dir, Options{Fsync: SyncAlways})
	defer ns2.Close()
	if snap != nil {
		t.Errorf("corrupt snapshot was restored: %q", snap)
	}
	if ns2.Stats().Recovery.SnapshotLoaded {
		t.Error("recovery claims a snapshot was loaded")
	}
	// The post-checkpoint tail is still replayed.
	if len(got) != 1 || string(got[0]) != "tail" {
		t.Errorf("replayed %q, want just the tail record", got)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := map[string]SyncPolicy{
		"":           SyncAlways,
		"always":     SyncAlways,
		"record":     SyncAlways,
		"per-record": SyncAlways,
		"ALWAYS":     SyncAlways,
		"interval":   SyncInterval,
		"batch":      SyncInterval,
		"off":        SyncOff,
		"none":       SyncOff,
		"never":      SyncOff,
	}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("bad policy spelling accepted")
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		back, err := ParseSyncPolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestStoreClosedRefusesAppend(t *testing.T) {
	ns, _, _ := openCollecting(t, t.TempDir(), Options{})
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Append([]byte("x")); err == nil {
		t.Error("append on closed store succeeded")
	}
	if err := ns.Checkpoint([]byte("x")); err == nil {
		t.Error("checkpoint on closed store succeeded")
	}
	if err := ns.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// walDirty reports whether the open generation has unsynced appends.
func walDirty(ns *NodeStore) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.w.dirty
}

// TestIntervalFlusherSyncsWithoutAppends pins the SyncInterval contract:
// records reach the disk within an interval of being appended even when
// no later Append arrives to trigger the flush, and Close ends the
// flusher.
func TestIntervalFlusherSyncsWithoutAppends(t *testing.T) {
	ns, _, _ := openCollecting(t, t.TempDir(), Options{Fsync: SyncInterval, FsyncInterval: time.Millisecond})
	for round := 0; round < 3; round++ {
		appendAll(t, ns, testRecords(10))
		deadline := time.Now().Add(5 * time.Second)
		for walDirty(ns) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: appends still unsynced after 5s of 1ms intervals", round)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ns.flushDone:
	default:
		t.Error("flusher still running after Close")
	}
}

// TestIntervalFlusherAcrossCheckpoints runs the flusher against appends
// and WAL rotations at once (the race detector checks the hand-over of
// the open generation) and requires the usual recovery result.
func TestIntervalFlusherAcrossCheckpoints(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: SyncInterval, FsyncInterval: 100 * time.Microsecond}
	ns, _, _ := openCollecting(t, dir, opts)
	recs := testRecords(50)
	for i := 0; i < 20; i++ {
		appendAll(t, ns, recs)
		if err := ns.Checkpoint([]byte(fmt.Sprintf("snap-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(t, ns, recs[:7])
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	ns2, got, snap := openCollecting(t, dir, opts)
	defer ns2.Close()
	if string(snap) != "snap-19" || len(got) != 7 {
		t.Errorf("recovered snapshot %q and %d records, want snap-19 and 7", snap, len(got))
	}
}

// TestCheckFormatRefusesOtherVersion: a directory is stamped with the
// record-format version of its first user, survives checkpoints with the
// stamp intact, and refuses any other version — including a directory
// from before stamps existed — with an error naming both.
func TestCheckFormatRefusesOtherVersion(t *testing.T) {
	dir := t.TempDir()
	if err := CheckFormat(dir, 7); err != nil {
		t.Fatal(err)
	}
	ns, _, _ := openCollecting(t, dir, Options{Fsync: SyncOff})
	appendAll(t, ns, testRecords(3))
	if err := ns.Checkpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(dir, 7); err != nil {
		t.Fatalf("same version refused after a checkpoint: %v", err)
	}
	err := CheckFormat(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "version 7") || !strings.Contains(err.Error(), "version 8") {
		t.Fatalf("version 8 against a version-7 directory: %v", err)
	}

	// Logs but no stamp: written before stamps existed, i.e. version 1.
	if err := os.Remove(filepath.Join(dir, formatFile)); err != nil {
		t.Fatal(err)
	}
	err = CheckFormat(dir, 8)
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "version 8") {
		t.Fatalf("version 8 against an unstamped directory: %v", err)
	}
	if err := CheckFormat(dir, unversionedFormat); err != nil {
		t.Fatalf("version 1 against an unstamped directory: %v", err)
	}

	if err := os.WriteFile(filepath.Join(dir, formatFile), []byte("seven"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckFormat(dir, 7); err == nil {
		t.Fatal("garbled stamp accepted")
	}
}

// TestWALAppendFraming pins the log bytes the reused framing buffer writes:
// each record is its big-endian length, its CRC-32C and the payload, also
// after a record too large for the buffer to be kept, and a short record
// after a long one carries nothing of the long one's tail.
func TestWALAppendFraming(t *testing.T) {
	recs := [][]byte{
		bytes.Repeat([]byte{'a'}, 300),
		[]byte("b"),
		bytes.Repeat([]byte{'c'}, walBufKeep+1),
		[]byte("dd"),
		{},
	}
	var want []byte
	for _, rec := range recs {
		want = binary.BigEndian.AppendUint32(want, uint32(len(rec)))
		want = binary.BigEndian.AppendUint32(want, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
		want = append(want, rec...)
	}
	if got := walBytes(t, recs); !bytes.Equal(got, want) {
		t.Fatalf("WAL file is %d bytes, want %d framed records of %d bytes", len(got), len(recs), len(want))
	}
}

// TestWALAppendAllocs checks a warmed WAL appends without allocating.
func TestWALAppendAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := openWAL(filepath.Join(t.TempDir(), "a.log"), SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close() //nolint:errcheck // a scratch log
	rec := bytes.Repeat([]byte{'r'}, 512)
	if _, err := w.append(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WAL append allocates %.0f times per record, want 0", n)
	}
}
