// Package store is the durability subsystem: a length-prefixed,
// CRC-checksummed write-ahead log of accepted state changes with a
// configurable fsync policy, periodic checksummed snapshots of the
// compacted state, and log truncation after a successful snapshot.
//
// The unit of durability is one node directory (NodeStore): the cluster
// runtime gives every member its own directory under the configured data
// dir and appends one record per write batch — every state change of one
// write a replay must redo, grouped: the event frames of a shard batch
// whose steps store something, a base load's chunk of slow-changing
// inserts, a lone insert, delete or sig reset. The store treats a record
// as opaque bytes. On recovery the newest valid snapshot is restored and
// the WAL tail replayed; a torn final record — the signature of a crash
// mid-append — is detected by its checksum and skipped instead of
// aborting recovery (everything before it was already durable, everything
// after it never finished), so a write's changes survive all together or
// not at all.
//
// Crash consistency comes from two rules: snapshots are written to a temp
// file and renamed into place (atomic on POSIX), and WAL generations are
// only deleted after the snapshot covering them is durably on disk. A
// crash at any point therefore leaves either the old snapshot plus its
// full log, or the new snapshot plus the (possibly empty) next
// generation's log — both recover to the same state.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
)

// SyncPolicy selects when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: no accepted event is
	// ever lost, at the price of one fsync per event.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs once per configured interval, from the store's
	// flusher goroutine rather than inside an append, and on
	// close/checkpoint: an append never waits for the disk, and a crash
	// can lose up to one interval (plus the fsync then in flight) of tail
	// records, all of which the transport retry budget may still
	// redeliver.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS flushes on its own schedule.
	// Fastest, and still torn-record-safe (the checksum catches partial
	// writes), but a crash can lose any unflushed tail.
	SyncOff
)

// ParseSyncPolicy maps the flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always", "record", "per-record":
		return SyncAlways, nil
	case "interval", "batch":
		return SyncInterval, nil
	case "off", "none", "never":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or off)", s)
}

// String renders the policy as its canonical flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return "always"
	}
}

// walHeaderSize is the per-record framing: u32 payload length, u32
// CRC-32C of the payload.
const walHeaderSize = 8

// maxWALRecord bounds one record; larger lengths indicate corruption.
const maxWALRecord = 64 << 20

// crcTable is the Castagnoli table (hardware-accelerated on most CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wal is one open write-ahead log file.
type wal struct {
	f      *os.File
	policy SyncPolicy
	dirty  bool
	// appends counts records written; the store's flusher compares it
	// across an fsync to tell whether that fsync covered every append.
	appends uint64
	// buf frames each record (header then payload) for its one Write. It
	// is reused across appends, which the owning NodeStore serializes; a
	// buffer grown past walBufKeep by a rare large record is not kept.
	buf []byte
}

// walBufKeep is the largest framing buffer a wal keeps between appends.
const walBufKeep = 64 << 10

func openWAL(path string, policy SyncPolicy) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, policy: policy}, nil
}

// append frames and writes one record, then applies the sync policy. It
// returns the number of file bytes the record occupied.
func (w *wal) append(payload []byte) (int, error) {
	if len(payload) > maxWALRecord {
		return 0, fmt.Errorf("store: WAL record of %d bytes exceeds limit", len(payload))
	}
	// One writev-style call: header and payload in a single Write so a
	// crash tears at most the final record, never interleaves two.
	buf := binary.BigEndian.AppendUint32(w.buf[:0], uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	_, err := w.f.Write(buf)
	if cap(buf) <= walBufKeep {
		w.buf = buf
	}
	if err != nil {
		return 0, err
	}
	w.dirty = true
	w.appends++
	if w.policy == SyncAlways {
		if err := w.sync(); err != nil {
			return 0, err
		}
	}
	return walHeaderSize + len(payload), nil
}

// sync flushes the file if it has unsynced appends.
func (w *wal) sync() error {
	if !w.dirty {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// close flushes (best-effort under SyncOff semantics is still a flush:
// close is a clean shutdown, not a crash) and closes the file.
func (w *wal) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayBufSize is the read buffer of one log's replay: records are read
// out of it in 64 KiB refills instead of two read calls each.
const replayBufSize = 64 << 10

// replayWAL streams every intact record of one log file through fn, in
// append order. The first damaged record — an incomplete header or
// payload, a checksum mismatch, or an implausible length — ends replay
// with torn=true and tornBytes counting the discarded tail: each record
// is written in a single append, so damage means the crash landed
// mid-write and nothing after the tear ever committed. This is the
// truncate-at-first-bad-record discipline of production WALs; fn errors
// abort replay and are returned verbatim.
//
// The log is read through one buffered reader, and every record's
// payload lands in one buffer reused across records: rec is valid only
// during its fn call, and fn must copy what it keeps.
func replayWAL(path string, fn func(rec []byte) error) (records int, torn bool, tornBytes int64, err error) {
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
	r := bufio.NewReaderSize(f, replayBufSize)
	var off int64
	var hdr [walHeaderSize]byte
	var payload []byte
	for {
		_, err := io.ReadFull(r, hdr[:])
		if err == io.EOF {
			return records, false, 0, nil
		}
		if err == io.ErrUnexpectedEOF {
			return records, true, size - off, nil // torn header
		}
		if err != nil {
			return records, false, 0, err
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		want := binary.BigEndian.Uint32(hdr[4:8])
		if n > maxWALRecord {
			return records, true, size - off, nil // implausible length: torn tail
		}
		if int64(n) > size-off-walHeaderSize {
			// Torn payload, caught before a damaged length sizes a buffer
			// larger than the file.
			return records, true, size - off, nil
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return records, true, size - off, nil // torn payload
			}
			return records, false, 0, err
		}
		if crc32.Checksum(payload, crcTable) != want {
			return records, true, size - off, nil // torn checksum
		}
		if err := fn(payload); err != nil {
			return records, false, 0, err
		}
		off += walHeaderSize + int64(n)
		records++
	}
}
