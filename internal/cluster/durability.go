package cluster

import (
	"fmt"
	"log"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"provcompress/internal/core"
	"provcompress/internal/store"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// The owner write path. Every change to a member's own partition — the
// event steps of a shard batch, a slow insert or delete (a base load's
// chunk of them), a sig reset, a read-repair merge — goes through
// Node.write, which works the same way on every member:
//
//   - A member with a store (Config.DataDir set) owns a store.NodeStore
//     (WAL + snapshots) in its own subdirectory and writes log-then-apply
//     under its durMu: the write's one record is appended, the apply runs
//     against the partition, and no other write interleaves. WAL order is
//     apply order, so replaying the log through partition.applyRecord (the
//     same step, shipping nothing) rebuilds the exact pre-crash state. A
//     crash between append and apply means the record replays on
//     recovery, which is idempotent against the snapshot it follows.
//   - A member with replicas ships the same record bytes to them once the
//     lock is released (replicate), so owner, replay and shadow read one
//     stream.
//   - A member with neither takes no lock and builds no record, so its
//     shards apply concurrently. The durMu serialization is the durability
//     tradeoff: shards that evaluate side by side on a volatile member
//     serialize their applies on a durable one.
//
// A record is a group commit: one batch (walBatch) of every change its
// write made, in apply order, a lone change being a batch of one. Only a
// change whose apply alters recoverable state is an entry: the record
// builder returns nil when none does. For an event partition.changesState
// decides from the frame and the scheme before the step runs; under
// Advanced an intermediate event of a class that already exists stores
// nothing (Section 5.3), so it runs its step live — shipping its heads —
// and is not logged. A log that holds such an event still replays: it
// applies as a no-op.

// Record entry kinds. Each entry's payload starts with one of these bytes.
const (
	recEvent  = 1 // tuple frame whose step changes state (partition.changesState)
	recInsert = 2 // slow-changing insert (LoadBase / InsertSlow)
	recDelete = 3 // slow-changing delete
	recSig    = 4 // equivalence-table reset broadcast (Section 5.5)
)

// walFormatVersion names the layout of the records this file encodes;
// every node directory is stamped with it (store.CheckFormat) and a
// directory stamped otherwise is refused at recovery rather than replayed
// through the wrong decoder. Bump it with any change to a record's bytes.
// Version 1 wrote an event's metadata as Eq, Exist, EvID and an
// unconditional Prev; version 2 writes encodeMeta's order, one change per
// record; version 3 makes every record a delta-coded batch of changes.
const walFormatVersion = 3

// maxWriteBatch caps the changes of one write: the works a shard worker
// takes at once, and the tuples of one base-load record. It matches a
// link's batch cap (maxBatchFrames), under wire.MaxBatchEntries.
const maxWriteBatch = 512

// nodeSnapVersion is the one version byte of a node snapshot — this byte,
// the database snapshot, then the scheme state; bump it with any change to
// their bytes. Version 1 also carried an inner version byte per layout,
// the graveyard cap, a byte-accounting trailer and the node's outputs.
const nodeSnapVersion = 2

// nodeDataDir names one member's storage directory.
func (c *Cluster) nodeDataDir(addr types.NodeAddr) string {
	return filepath.Join(c.dataDir, sanitizeAddr(string(addr)))
}

// sanitizeAddr maps a node address onto a safe directory name.
func sanitizeAddr(addr string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, addr)
}

// openStore runs recovery for one node and attaches its NodeStore. The
// caller guarantees no apply is running (boot, or a restart with the node
// dead and durMu held). It touches only n's own directory and partition,
// so New recovers the boot members concurrently.
func (c *Cluster) openStore(n *Node) error {
	dir := c.nodeDataDir(n.addr)
	if err := store.CheckFormat(dir, walFormatVersion); err != nil {
		return fmt.Errorf("cluster: open store for %s: %w", n.addr, err)
	}
	// Recovery runs with the node quiescent (boot, or dead) and the
	// partition empty: the newest snapshot loads into it, then the WAL
	// tail replays on top, every record through one evaluation buffer, as
	// a shard worker's steps run through its own.
	var buf evalBuf
	restore := func(snap []byte) error { return n.self.load(snap, c.names) }
	apply := func(rec []byte) error { return n.self.applyRecord(n, rec, &buf) }
	ns, err := store.Open(dir, c.dopts, restore, apply)
	if err != nil {
		return fmt.Errorf("cluster: open store for %s: %w", n.addr, err)
	}
	n.dstore = ns
	return nil
}

// fail records an error the node survives: a WAL append or checkpoint that
// could not reach disk, a replicated record or handoff payload that does
// not decode, a rule whose evaluation errored. The node keeps running on
// the state it has — an engine that stops accepting events because a disk
// write failed would violate the availability the rest of the fault model
// works for — but the error is counted, the first few are logged, and the
// count is surfaced in stats so operators see the guarantee is degraded.
func (n *Node) fail(op string, err error) {
	if n.failures.Add(1) <= 3 {
		log.Printf("cluster: %s: %s failed: %v", n.addr, op, err)
	}
}

// write applies one change to this member's own partition (see the file
// comment). rec builds the change's record, or returns nil when the change
// stores nothing recoverable; it runs only when a log or a replica will
// read the record, before apply and under the same lock, so it sees the
// partition as apply will find it. Neither function escapes.
func (n *Node) write(rec func() []byte, apply func()) {
	logged := n.c.dataDir != ""
	if !logged && n.c.replicas <= 0 {
		apply()
		return
	}
	if logged {
		n.durMu.Lock()
	}
	r := rec()
	want := logged && r != nil && n.logApply(r)
	apply()
	if want {
		n.checkpointLocked()
	}
	if logged {
		n.durMu.Unlock()
	}
	if r != nil {
		n.replicate(r)
	}
}

// logApply appends rec and reports whether the store now wants a
// checkpoint. Callers hold durMu.
func (n *Node) logApply(rec []byte) bool {
	if n.dstore == nil {
		return false
	}
	want, err := n.dstore.Append(rec)
	if err != nil {
		n.fail("WAL append", err)
		return false
	}
	return want
}

// checkpointLocked snapshots the node and truncates its WAL. Callers hold
// durMu, so the payload reflects every appended record.
func (n *Node) checkpointLocked() {
	if n.dstore == nil {
		return
	}
	if err := n.dstore.Checkpoint(n.self.snapshot()); err != nil {
		n.fail("checkpoint", err)
	}
}

// closeStoreLocked flushes and detaches the member's store, if it has one;
// a close that fails is counted like any other survived error. Callers
// hold durMu.
func (n *Node) closeStoreLocked() {
	if n.dstore == nil {
		return
	}
	if err := n.dstore.Close(); err != nil {
		n.fail("store close", err)
	}
	n.dstore = nil
}

// walBatch builds one record: a wire.AppendBatch body whose entries are
// the write's changes, each payload a kind byte and its operand — an
// event's frame body (the trace context is dropped: replay is untraced),
// a slow tuple, or nothing for a sig. An event entry is delta-coded
// against the latest earlier entry of its equivalence class (classGroup),
// as a link codes its frames, and every other entry against the one
// before it. A shard worker keeps one and reuses its buffers for every
// record it builds.
type walBatch struct {
	payloads []byte // the entries' payloads, back to back
	ends     []int  // where each entry's payload ends in payloads
	entries  []wire.BatchEntry
	sizes    []int
	rec      []byte
}

func (b *walBatch) reset() {
	b.payloads, b.ends, b.entries = b.payloads[:0], b.ends[:0], b.entries[:0]
}

// event adds the step of f.
func (b *walBatch) event(f *tupleFrame) {
	var e wire.Encoder
	e.SetBuf(b.payloads)
	e.U8(recEvent)
	f.encodeBody(&e)
	b.push(e.Bytes(), classGroup(f.Meta))
}

// tuple adds a slow insert or delete of t.
func (b *walBatch) tuple(kind uint8, t types.Tuple) {
	var e wire.Encoder
	e.SetBuf(b.payloads)
	e.U8(kind)
	e.Tuple(t)
	b.push(e.Bytes(), 0)
}

// sig adds a sig reset.
func (b *walBatch) sig() { b.push(append(b.payloads, recSig), 0) }

// push records the entry that payloads now ends with.
func (b *walBatch) push(payloads []byte, group uint64) {
	b.payloads = payloads
	b.ends = append(b.ends, len(payloads))
	b.entries = append(b.entries, wire.BatchEntry{Group: group})
}

// bytes encodes the record, or returns nil when the batch holds no
// change. The record is valid until the batch is reset.
func (b *walBatch) bytes() []byte {
	if len(b.ends) == 0 {
		return nil
	}
	start := 0
	for i, end := range b.ends {
		b.entries[i].Payload = b.payloads[start:end]
		start = end
	}
	b.rec, b.sizes = wire.AppendBatch(b.rec[:0], b.entries, true, b.sizes[:0])
	return b.rec
}

// recSigRecord is the record of a sig reset, a batch of one.
var recSigRecord = func() []byte {
	var b walBatch
	b.sig()
	return b.bytes()
}()

// change is one decoded record entry: its kind and, for an event, its
// frame — for a slow insert or delete, only the frame's tuple.
type change struct {
	kind uint8
	f    tupleFrame
}

// decodeRecord decodes a record's changes, in order, into buf's change
// list, through the batch entries and delta arena buf keeps beside it, so
// a record decoded into warm buffers costs only what its tuples own; a nil
// buf decodes into buffers of the call's own. A record any entry of which
// does not decode is refused whole, so an apply never stops half way
// through a write. Strings decode through names, and nothing decoded
// aliases rec or the batch buffers.
func decodeRecord(buf *evalBuf, rec []byte, names *types.Names) ([]change, error) {
	if buf == nil {
		buf = new(evalBuf)
	}
	entries, arena, err := wire.AppendDecodeBatch(buf.entries[:0], buf.arena[:0], wire.NewDecoder(rec))
	buf.entries, buf.arena = entries, arena
	if err != nil {
		buf.changes = buf.changes[:0]
		return buf.changes, fmt.Errorf("cluster: corrupt record: %w", err)
	}
	changes := slices.Grow(buf.changes[:0], len(entries))[:len(entries)]
	buf.changes = changes
	for i, ent := range entries {
		ch := &changes[i]
		*ch = change{}
		d := wire.NewNamedDecoder(ent.Payload, names)
		switch ch.kind = d.U8(); {
		case d.Err() != nil:
		case ch.kind == recEvent:
			if err := ch.f.decodeBody(d); err != nil {
				return changes[:0], fmt.Errorf("cluster: corrupt event entry: %w", err)
			}
		case ch.kind == recInsert || ch.kind == recDelete:
			ch.f.Tuple = d.Tuple()
		case ch.kind != recSig:
			return changes[:0], fmt.Errorf("cluster: record entry of unknown kind %d", ch.kind)
		}
		if err := d.Err(); err != nil {
			return changes[:0], fmt.Errorf("cluster: corrupt record entry: %w", err)
		}
		if d.Remaining() != 0 {
			return changes[:0], fmt.Errorf("cluster: record entry of kind %d with %d trailing bytes", ch.kind, d.Remaining())
		}
	}
	return changes, nil
}

// insertSlow inserts slow-changing tuples into this member's partition in
// one write and reports how many were new. A tuple already stored is not
// logged.
func (n *Node) insertSlow(ts ...types.Tuple) (added int) {
	n.write(func() []byte {
		var b walBatch
		for _, t := range ts {
			if !n.self.db.Contains(t) {
				b.tuple(recInsert, t)
			}
		}
		return b.bytes()
	}, func() {
		for _, t := range ts {
			if n.self.db.Insert(t) {
				added++
			}
		}
	})
	return added
}

// deleteSlow removes a slow-changing tuple from this member's partition.
// It reports whether the tuple was present, plus the VIDs of any graveyard
// entries the retention cap evicted as a consequence (DeleteEvicted) — the
// serving layer invalidates cached trees that resolved them.
func (n *Node) deleteSlow(t types.Tuple) (removed bool, evicted []types.ID) {
	n.write(func() []byte {
		if !n.self.db.Contains(t) {
			return nil
		}
		var b walBatch
		b.tuple(recDelete, t)
		return b.bytes()
	}, func() { removed, evicted = n.self.db.DeleteEvicted(t) })
	return removed, evicted
}

// applySig handles a sig broadcast. The reset is recorded, so a replayed
// log or a shadow clears the equivalence table at the same point in the
// apply order the live owner did.
func (n *Node) applySig() {
	n.write(func() []byte { return recSigRecord }, n.self.clearEquiKeys)
	n.clearHostedSig()
}

// clearHostedSig applies a sig broadcast to the hosted partitions —
// members that Left have no replication stream anymore, so their acting
// owner clears their equivalence tables off the direct broadcast. Shadows
// of live owners are left alone: their owner's replicated recSig clears
// them at the right point in the record stream.
func (n *Node) clearHostedSig() {
	if n.downLeft.Load() == 0 {
		return
	}
	n.partsMu.Lock()
	parts := make([]*partition, 0, len(n.parts))
	for _, p := range n.parts {
		parts = append(parts, p)
	}
	n.partsMu.Unlock()
	for _, p := range parts {
		if n.viewAlive(p.owner) {
			continue
		}
		p.clearEquiKeys()
	}
}

// recoverForRestart rebuilds a dead durable node from disk: the crashed
// partition is emptied in place — shard workers and walk handlers keep the
// pointer — and the newest snapshot plus WAL tail replayed into it, so
// Restart proves the durability path instead of relying on RAM survival.
// Any apply still in flight from before the kill finishes (or lands in the
// old WAL generation) before the lock admits us.
func (c *Cluster) recoverForRestart(n *Node) error {
	n.durMu.Lock()
	defer n.durMu.Unlock()
	n.closeStoreLocked()
	state, err := core.NewNodeState(c.scheme, c.keys, nil)
	if err != nil {
		return err
	}
	p := n.self
	p.db.Reset()
	p.mu.Lock()
	p.state = state
	p.mu.Unlock()
	return c.openStore(n)
}

// Checkpoint forces a snapshot + WAL truncation on every durable member
// (a clean shutdown writes one so the next boot recovers with zero
// replay). It is a no-op on a cluster without a data dir.
func (c *Cluster) Checkpoint() error {
	if c.dataDir == "" {
		return nil
	}
	var firstErr error
	for _, n := range c.nodeMap() {
		n.durMu.Lock()
		if n.dstore != nil {
			if err := n.dstore.Checkpoint(n.self.snapshot()); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cluster: checkpoint %s: %w", n.addr, err)
			}
		}
		n.durMu.Unlock()
	}
	return firstErr
}

// DurabilityStats aggregates the durability counters across members.
type DurabilityStats struct {
	// Enabled reports whether the cluster persists state at all.
	Enabled bool
	// Fsync is the WAL sync policy in effect.
	Fsync string
	// WALRecords / WALBytes count appends since boot (or last restart).
	WALRecords int64
	WALBytes   int64
	// Snapshots / SnapshotBytes count checkpoints written since boot.
	Snapshots     int64
	SnapshotBytes int64
	// SnapshotAgeSeconds is the age of the stalest member snapshot
	// (negative when some member has never checkpointed).
	SnapshotAgeSeconds float64
	// ReplayedRecords / TornRecords / TornBytes describe the recoveries the
	// members performed at their most recent (re)open.
	ReplayedRecords int64
	TornRecords     int64
	TornBytes       int64
	// RecoveredNodes counts members whose last open restored a snapshot or
	// replayed records.
	RecoveredNodes int
	// RecoverySeconds sums the members' recovery wall times.
	RecoverySeconds float64
	// Errors counts the failures the members survived (Node.fail): appends
	// or checkpoints that could not reach disk, corrupt replicated records
	// or handoff payloads, rule evaluations that errored.
	Errors int64
}

// DurabilityStats snapshots the cluster's durability counters.
func (c *Cluster) DurabilityStats() DurabilityStats {
	ds := DurabilityStats{Enabled: c.dataDir != "", Fsync: c.dopts.Fsync.String()}
	if !ds.Enabled {
		return ds
	}
	var age time.Duration
	neverSnapped := false
	for _, n := range c.nodeMap() {
		ds.Errors += n.failures.Load()
		n.durMu.Lock()
		dstore := n.dstore
		n.durMu.Unlock()
		if dstore == nil {
			continue
		}
		s := dstore.Stats()
		ds.WALRecords += s.WALRecords
		ds.WALBytes += s.WALBytes
		ds.Snapshots += s.Snapshots
		ds.SnapshotBytes += s.SnapshotBytes
		if s.SnapshotAge < 0 {
			neverSnapped = true
		} else if s.SnapshotAge > age {
			age = s.SnapshotAge
		}
		ds.ReplayedRecords += s.Recovery.ReplayedRecords
		ds.TornRecords += s.Recovery.TornRecords
		ds.TornBytes += s.Recovery.TornBytes
		if s.Recovery.SnapshotLoaded || s.Recovery.ReplayedRecords > 0 {
			ds.RecoveredNodes++
		}
		ds.RecoverySeconds += s.Recovery.WallTime.Seconds()
	}
	ds.SnapshotAgeSeconds = age.Seconds()
	if neverSnapped {
		ds.SnapshotAgeSeconds = -1
	}
	return ds
}

// DataDir returns the cluster's storage root ("" when volatile).
func (c *Cluster) DataDir() string { return c.dataDir }
