package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Options tunes one node's durability.
type Options struct {
	// Fsync selects when WAL appends reach stable storage.
	Fsync SyncPolicy
	// FsyncInterval is the SyncInterval flush period (default 50ms).
	FsyncInterval time.Duration
	// SnapshotEvery triggers an automatic checkpoint after this many WAL
	// records since the last snapshot (0 = only explicit checkpoints).
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 50 * time.Millisecond
	}
	return o
}

// RecoveryStats describes one completed recovery.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a valid snapshot was restored.
	SnapshotLoaded bool
	// SnapshotBytes is the restored snapshot's payload size.
	SnapshotBytes int64
	// SnapshotAge is how stale the restored snapshot was at recovery
	// (time since it was written); zero when none was loaded.
	SnapshotAge time.Duration
	// ReplayedRecords is the number of WAL records applied on top of the
	// snapshot.
	ReplayedRecords int64
	// TornRecords counts torn WAL tails detected and skipped (at most one
	// per log generation).
	TornRecords int64
	// TornBytes is the total size of the discarded torn tails.
	TornBytes int64
	// WallTime is how long the whole recovery took.
	WallTime time.Duration
}

// Stats is a point-in-time snapshot of one NodeStore's durability
// counters.
type Stats struct {
	// WALRecords / WALBytes count appends since the store was opened.
	WALRecords int64
	WALBytes   int64
	// Snapshots / SnapshotBytes count checkpoints written since open.
	Snapshots     int64
	SnapshotBytes int64
	// SnapshotAge is the time since the last checkpoint was written (or
	// restored); negative when no snapshot exists yet.
	SnapshotAge time.Duration
	// Recovery describes the recovery this store performed at open.
	Recovery RecoveryStats
}

// NodeStore is the durable state of one cluster member: its current WAL
// generation plus the newest snapshot. Methods are safe for concurrent
// use; the caller is responsible for ordering Append calls consistently
// with the in-memory applies they describe (the cluster runtime holds its
// per-node durability lock across both).
type NodeStore struct {
	dir  string
	opts Options

	mu           sync.Mutex
	w            *wal
	gen          uint64 // generation the open WAL appends to
	sinceSnap    int    // records appended since the last checkpoint
	lastSnapshot time.Time
	closed       bool

	// The SyncInterval flusher (flushLoop); nil channels under the other
	// policies. flushErr holds a failed background fsync until the next
	// Append reports it.
	flushStop chan struct{}
	flushDone chan struct{}
	flushErr  error

	walRecords    int64
	walBytes      int64
	snapshots     int64
	snapshotBytes int64
	recovery      RecoveryStats
}

// Open prepares a node directory (creating it if needed) and runs
// recovery: restore is called at most once with the newest valid
// snapshot's payload, then apply is called for every intact WAL record
// newer than it, in append order. apply's rec is valid only during that
// call: replay reads every record into one reused buffer, so apply copies
// whatever it keeps (the snapshot payload handed to restore is the
// caller's to keep). Both callbacks may be nil when the caller has no
// state to rebuild (a fresh boot directory). On return the store is ready
// to Append.
func Open(dir string, opts Options, restore func(snapshot []byte) error, apply func(rec []byte) error) (*NodeStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ns := &NodeStore{dir: dir, opts: opts.withDefaults()}
	start := time.Now()
	if err := ns.recover(restore, apply); err != nil {
		return nil, err
	}
	ns.recovery.WallTime = time.Since(start)

	w, err := openWAL(walPath(dir, ns.gen), ns.opts.Fsync)
	if err != nil {
		return nil, err
	}
	// The generation may be a file recovery just created: its directory
	// entry must be durable before a record appended to it is.
	if err := syncDir(dir); err != nil {
		return nil, errors.Join(err, w.close())
	}
	ns.w = w
	if ns.opts.Fsync == SyncInterval {
		ns.flushStop = make(chan struct{})
		ns.flushDone = make(chan struct{})
		go ns.flushLoop()
	}
	return ns, nil
}

// flushLoop is the SyncInterval flusher: once per interval it fsyncs the
// open WAL if it has unsynced appends. The fsync runs outside ns.mu, so an
// Append — and the cluster's per-node durability lock around it — never
// waits for the disk: how long an fsync takes, which on a shared disk
// varies by an order of magnitude from one minute to the next, no longer
// decides how fast a durable node applies events. Close stops the loop
// before the final flush.
func (ns *NodeStore) flushLoop() {
	defer close(ns.flushDone)
	t := time.NewTicker(ns.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-ns.flushStop:
			return
		case <-t.C:
		}
		ns.mu.Lock()
		w := ns.w
		appends, dirty := w.appends, w.dirty
		ns.mu.Unlock()
		if !dirty {
			continue
		}
		err := w.f.Sync()
		ns.mu.Lock()
		switch {
		case ns.w != w:
			// A checkpoint sealed (synced and closed) this generation
			// meanwhile; its records are inside the snapshot.
		case err != nil:
			ns.flushErr = err
		case w.appends == appends:
			w.dirty = false
		}
		ns.mu.Unlock()
	}
}

// recover restores the newest valid snapshot and replays the WAL
// generations after it. A snapshot that fails its checksum falls back to
// the previous one (whose WAL generations are only deleted after a newer
// snapshot is durable, so the full history is still on disk).
func (ns *NodeStore) recover(restore func([]byte) error, apply func([]byte) error) error {
	snaps, wals, err := scanDir(ns.dir)
	if err != nil {
		return err
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })    // oldest first

	var fromGen uint64
	for _, gen := range snaps {
		payload, err := readSnapshotFile(snapPath(ns.dir, gen))
		if err != nil {
			continue // damaged snapshot: fall back to the previous one
		}
		if restore != nil {
			if err := restore(payload); err != nil {
				return fmt.Errorf("store: restore snapshot gen %d: %w", gen, err)
			}
		}
		ns.recovery.SnapshotLoaded = true
		ns.recovery.SnapshotBytes = int64(len(payload))
		if fi, err := os.Stat(snapPath(ns.dir, gen)); err == nil {
			ns.recovery.SnapshotAge = time.Since(fi.ModTime())
			ns.lastSnapshot = fi.ModTime()
		}
		fromGen = gen
		break
	}

	maxGen := fromGen
	for _, gen := range wals {
		if gen > maxGen {
			maxGen = gen
		}
		if gen < fromGen {
			continue // covered by the restored snapshot
		}
		records, torn, tornBytes, err := replayWAL(walPath(ns.dir, gen), apply)
		if err != nil {
			return fmt.Errorf("store: replay wal gen %d: %w", gen, err)
		}
		ns.recovery.ReplayedRecords += int64(records)
		if torn {
			ns.recovery.TornRecords++
			ns.recovery.TornBytes += tornBytes
		}
	}
	// Append to a fresh generation: the torn tail (if any) stays behind
	// in the old file instead of being overwritten mid-log, and the next
	// checkpoint truncates the lot.
	ns.gen = maxGen
	if ns.recovery.ReplayedRecords > 0 || ns.recovery.TornRecords > 0 {
		ns.gen = maxGen + 1
	}
	return nil
}

// Append logs one record. The record is durable according to the sync
// policy once Append returns (under SyncInterval: within one interval).
// It reports whether the store now wants a checkpoint (SnapshotEvery
// records have accumulated); the caller decides when to actually
// Checkpoint. An fsync the flusher failed since the last Append is
// reported here, once, after the record is written.
func (ns *NodeStore) Append(rec []byte) (wantSnapshot bool, err error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return false, fmt.Errorf("store: append on closed store %s", ns.dir)
	}
	n, err := ns.w.append(rec)
	if err != nil {
		return false, err
	}
	ns.walRecords++
	ns.walBytes += int64(n)
	ns.sinceSnap++
	if err := ns.flushErr; err != nil {
		ns.flushErr = nil
		return false, fmt.Errorf("store: interval fsync: %w", err)
	}
	return ns.opts.SnapshotEvery > 0 && ns.sinceSnap >= ns.opts.SnapshotEvery, nil
}

// Checkpoint durably writes payload as the new snapshot, rotates the WAL
// to a fresh generation, and truncates (deletes) every older generation
// and snapshot. The caller must guarantee payload reflects every record
// appended so far (the cluster runtime serializes Checkpoint against its
// appends with the same per-node lock).
func (ns *NodeStore) Checkpoint(payload []byte) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return fmt.Errorf("store: checkpoint on closed store %s", ns.dir)
	}
	// Write the snapshot and open the next generation before touching the
	// live WAL: a failure anywhere in here leaves the store appending to
	// the old generation, fully recoverable.
	newGen := ns.gen + 1
	if err := writeSnapshotFile(ns.dir, newGen, payload); err != nil {
		return err
	}
	w, err := openWAL(walPath(ns.dir, newGen), ns.opts.Fsync)
	if err != nil {
		return err
	}
	// Seal the old generation; its records are all inside the snapshot.
	if err := ns.w.close(); err != nil {
		w.close() //nolint:errcheck
		return err
	}
	// The new snapshot is durable and the new log open: everything older
	// is dead weight. Deleting it is safe even if we crash mid-loop —
	// recovery picks the newest valid snapshot first — and a directory
	// that cannot be listed just keeps it until the next checkpoint.
	snaps, wals, _ := scanDir(ns.dir)
	for _, g := range snaps {
		if g < newGen {
			os.Remove(snapPath(ns.dir, g)) //nolint:errcheck
		}
	}
	for _, g := range wals {
		if g < newGen {
			os.Remove(walPath(ns.dir, g)) //nolint:errcheck
		}
	}
	ns.w = w
	ns.gen = newGen
	ns.sinceSnap = 0
	ns.snapshots++
	ns.snapshotBytes += int64(len(payload))
	ns.lastSnapshot = time.Now()
	// The new generation's directory entry, like the unlinks, is durable
	// only once the directory is: an append to it must not outlive it.
	return syncDir(ns.dir)
}

// Sync forces buffered WAL appends to stable storage regardless of the
// sync policy.
func (ns *NodeStore) Sync() error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.closed {
		return nil
	}
	return ns.w.sync()
}

// Close flushes and closes the WAL. The store cannot be reused; reopen
// the directory with Open to recover.
func (ns *NodeStore) Close() error {
	ns.mu.Lock()
	if ns.closed {
		ns.mu.Unlock()
		return nil
	}
	ns.closed = true
	ns.mu.Unlock()
	if ns.flushStop != nil {
		close(ns.flushStop)
		<-ns.flushDone
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.w.close()
}

// Stats snapshots the durability counters.
func (ns *NodeStore) Stats() Stats {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	age := -time.Second
	if !ns.lastSnapshot.IsZero() {
		age = time.Since(ns.lastSnapshot)
	}
	return Stats{
		WALRecords:    ns.walRecords,
		WALBytes:      ns.walBytes,
		Snapshots:     ns.snapshots,
		SnapshotBytes: ns.snapshotBytes,
		SnapshotAge:   age,
		Recovery:      ns.recovery,
	}
}
