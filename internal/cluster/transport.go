package cluster

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/metrics"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// TransportConfig tunes the fault-tolerant cluster transport. The zero
// value selects the defaults noted on each field.
type TransportConfig struct {
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// RetryBudget is how many times a failed send is retried (with a
	// fresh dial if needed) before the frame is dropped (default 4).
	RetryBudget int
	// BackoffMax caps the retry backoff, which starts at backoffBase and
	// doubles per attempt with jitter (default 200ms).
	BackoffMax time.Duration
	// IdleConnTimeout closes a link's connection after it has sent nothing
	// for this long; the next frame transparently re-dials. Zero (the
	// default) keeps connections open forever. Large clusters need this:
	// membership gossip touches O(log N) peers per node in a burst, and
	// without reaping each burst pins its sockets — two file descriptors
	// per connection, both ends in this process — for the cluster's
	// lifetime.
	IdleConnTimeout time.Duration
	// BatchFlush is the coalescing deadline: once the writer holds a frame
	// it waits at most this long for companions before flushing (default
	// 1ms), bounding the latency cost under light load. A frame that finds
	// no companion is flushed as a batch of one.
	BatchFlush time.Duration
}

func (tc TransportConfig) withDefaults() TransportConfig {
	if tc.DialTimeout <= 0 {
		tc.DialTimeout = time.Second
	}
	if tc.RetryBudget <= 0 {
		tc.RetryBudget = 4
	}
	if tc.BackoffMax <= 0 {
		tc.BackoffMax = 200 * time.Millisecond
	}
	if tc.BatchFlush <= 0 {
		tc.BatchFlush = time.Millisecond
	}
	return tc
}

// The transport's fixed parameters: no deployment, test or benchmark ever
// needed another value.
const (
	// queueLen bounds the per-peer outbound queue drained by the link's
	// writer goroutine. Handlers never block on the network itself; at
	// worst they block briefly on a full queue.
	queueLen = 1024
	// enqueueTimeout is how long a sender blocks on a full queue before
	// the frame is dropped and accounted.
	enqueueTimeout = 2 * time.Second
	// writeTimeout is the per-send write deadline, so a stalled peer
	// cannot block a sender forever.
	writeTimeout = 2 * time.Second
	// backoffBase is the first retry backoff.
	backoffBase = 2 * time.Millisecond
	// maxBatchBytes flushes the writer's coalescing buffer once the queued
	// sub-frame payloads reach this size. Batching is the ingest fast
	// path: the writer drains its queue into one frameBatch delivery (and
	// one write syscall) per flush.
	maxBatchBytes = 64 << 10
	// maxBatchFrames caps the sub-frame count of one batch. It stays well
	// under both the receiver's dedup window (so a redelivered batch's
	// seqs are all still tracked) and wire.MaxBatchEntries.
	maxBatchFrames = 512
)

// transportStats holds the live per-node transport counters.
type transportStats struct {
	dials        atomic.Int64
	redials      atomic.Int64
	dialErrors   atomic.Int64
	sends        atomic.Int64
	sendErrors   atomic.Int64
	retries      atomic.Int64
	drops        atomic.Int64
	queueDrops   atomic.Int64
	dups         atomic.Int64
	versionDrops atomic.Int64
	lateResults  atomic.Int64
	queryRetries atomic.Int64
	faultDrops   atomic.Int64
	faultDelays  atomic.Int64
	faultResets  atomic.Int64
	batchFrames  atomic.Int64
	// bytesTotal counts every wire byte successfully written (delivery +
	// length prefix). The per-class split lives on the node's persistent
	// per-link counters (linkBytes) so it survives transport teardown on
	// Kill; total-vs-sum equality is the cross-check the chaos suite
	// asserts.
	bytesTotal atomic.Int64
}

// Byte classes for per-message-class attribution, mirroring the netsim
// cost model: base-tuple shipping, provenance maintenance (piggybacked
// metadata and sig broadcasts), query traffic (walks and results), and
// batch framing overhead (the delivery header and per-entry framing
// around the sub-frames, whose bytes are attributed to their own classes).
const (
	classBase uint8 = iota
	classProv
	classQuery
	classBatch
)

// classNames orders the class labels for export.
var classNames = [...]string{classBase: "base", classProv: "prov", classQuery: "query", classBatch: "batch"}

// linkBytes is the persistent per-(sender, peer) byte attribution. It
// lives on the sending node, not the transport, because Kill discards
// transports while the paper-style bandwidth breakdown must survive
// crash/restart cycles.
type linkBytes struct {
	total atomic.Int64
	base  atomic.Int64
	prov  atomic.Int64
	query atomic.Int64
	batch atomic.Int64
}

// add attributes one delivered frame of wireBytes total bytes, of which
// provBytes (≤ wireBytes) carried piggybacked provenance metadata.
func (lb *linkBytes) add(class uint8, wireBytes, provBytes int) {
	lb.total.Add(int64(wireBytes))
	if provBytes > wireBytes {
		provBytes = wireBytes
	}
	switch class {
	case classProv:
		lb.prov.Add(int64(wireBytes))
	case classQuery:
		lb.query.Add(int64(wireBytes))
	case classBatch:
		lb.batch.Add(int64(wireBytes))
	default:
		lb.prov.Add(int64(provBytes))
		lb.base.Add(int64(wireBytes - provBytes))
	}
}

// TransportStats is a point-in-time snapshot of the transport counters,
// summed over the nodes it was collected from. It makes link failure
// observable: a healthy run shows zero redials/retries/drops, a chaos run
// shows exactly what the transport absorbed.
type TransportStats struct {
	Dials        int64 // successful connection establishments
	Redials      int64 // successful dials on a link that had worked before
	DialErrors   int64 // failed connection attempts
	Sends        int64 // deliveries written to the wire
	SendErrors   int64 // failed writes (including write-deadline expiry)
	Retries      int64 // re-attempts after a failed attempt
	Drops        int64 // frames abandoned after the retry budget
	QueueDrops   int64 // frames dropped on a persistently full queue
	Dups         int64 // redelivered duplicates suppressed by the receiver
	VersionDrops int64 // deliveries of another wire.FormatVersion, dropped undecoded
	LateResults  int64 // query results that arrived after the query timed out
	QueryRetries int64 // Query walks re-issued after a result timeout
	FaultDrops   int64 // writes discarded by the fault plan
	FaultDelays  int64 // writes stalled by the fault plan
	FaultResets  int64 // connections reset by the fault plan
	Batches      int64 // = Sends: every delivery is one frameBatch
	BatchFrames  int64 // sub-frames those batches carried

	// Byte attribution (successful writes only, delivery + length prefix):
	// BytesBase + BytesProv + BytesQuery + BytesBatch == BytesTotal.
	BytesTotal int64 // every wire byte written
	BytesBase  int64 // base-tuple shipping
	BytesProv  int64 // provenance maintenance (metadata piggyback + sig)
	BytesQuery int64 // query walks and results
	BytesBatch int64 // batch framing overhead around the sub-frames
}

// accumulate folds one node's live counters into the snapshot.
func (s *TransportStats) accumulate(ts *transportStats) {
	s.Dials += ts.dials.Load()
	s.Redials += ts.redials.Load()
	s.DialErrors += ts.dialErrors.Load()
	s.Sends += ts.sends.Load()
	s.Batches = s.Sends
	s.SendErrors += ts.sendErrors.Load()
	s.Retries += ts.retries.Load()
	s.Drops += ts.drops.Load()
	s.QueueDrops += ts.queueDrops.Load()
	s.Dups += ts.dups.Load()
	s.VersionDrops += ts.versionDrops.Load()
	s.LateResults += ts.lateResults.Load()
	s.QueryRetries += ts.queryRetries.Load()
	s.FaultDrops += ts.faultDrops.Load()
	s.FaultDelays += ts.faultDelays.Load()
	s.FaultResets += ts.faultResets.Load()
	s.BatchFrames += ts.batchFrames.Load()
	s.BytesTotal += ts.bytesTotal.Load()
}

// Counters exports the snapshot as an ordered metrics counter set.
func (s TransportStats) Counters() *metrics.Counters {
	c := metrics.NewCounters()
	c.Add("dials", s.Dials)
	c.Add("redials", s.Redials)
	c.Add("dial-errors", s.DialErrors)
	c.Add("sends", s.Sends)
	c.Add("send-errors", s.SendErrors)
	c.Add("retries", s.Retries)
	c.Add("drops", s.Drops)
	c.Add("queue-drops", s.QueueDrops)
	c.Add("dups-suppressed", s.Dups)
	c.Add("version-drops", s.VersionDrops)
	c.Add("late-results", s.LateResults)
	c.Add("query-retries", s.QueryRetries)
	c.Add("fault-drops", s.FaultDrops)
	c.Add("fault-delays", s.FaultDelays)
	c.Add("fault-resets", s.FaultResets)
	c.Add("batch-frames", s.BatchFrames)
	c.Add("bytes-total", s.BytesTotal)
	c.Add("bytes-base", s.BytesBase)
	c.Add("bytes-prov", s.BytesProv)
	c.Add("bytes-query", s.BytesQuery)
	c.Add("bytes-batch", s.BytesBatch)
	return c
}

// String renders the snapshot as an aligned table.
func (s TransportStats) String() string { return s.Counters().String() }

// outFrame is one queued delivery: the encoded inner frame plus the
// destination accounting epoch captured at enqueue time, the byte class
// of the payload, and how many trailing payload bytes are piggybacked
// provenance metadata (for class base frames carrying Advanced
// metadata). group, when non-zero, is the frame's batch delta group
// (wire.BatchEntry.Group): the equivalence class of a shipped tuple.
// pooled marks a payload the transport owns exclusively (drawn from the
// wire buffer pool by the encode fast path) and recycles once the frame
// settles; broadcast frames shared across links must not set it.
type outFrame struct {
	payload   []byte
	epoch     uint64
	group     uint64
	class     uint8
	provBytes int
	pooled    bool
}

// transport is one directed link: a bounded outbound queue drained by a
// dedicated writer goroutine that dials (and re-dials) the peer, applies
// write deadlines, injects plan faults, and retries failed sends with
// exponential backoff and jitter. Exactly one transport exists per
// (sender node, peer) pair at a time, so frames carry strictly increasing
// sequence numbers in write order and the receiver can suppress
// redelivered duplicates with a per-sender high-water mark.
type transport struct {
	owner *Node
	to    types.NodeAddr
	cfg   TransportConfig
	stats *transportStats

	queue chan outFrame
	stop  chan struct{}

	qmu     sync.Mutex
	stopped bool

	// Writer-goroutine state (no locking needed).
	conn       net.Conn
	everDialed bool
	seq        uint64
	rng        *rand.Rand
	faults     *linkFaults

	// Coalescing scratch, reused across flushes by the writer goroutine.
	batch   []outFrame
	entries []wire.BatchEntry
	sizes   []int
}

func newTransport(n *Node, to types.NodeAddr) *transport {
	t := &transport{
		owner:  n,
		to:     to,
		cfg:    n.c.tcfg,
		stats:  &n.stats,
		queue:  make(chan outFrame, queueLen),
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(linkSeed(1, n.addr, to))),
		faults: n.c.faults.link(n.addr, to),
	}
	return t
}

// halt stops the writer; queued frames are drained and accounted.
func (t *transport) halt() {
	t.qmu.Lock()
	if !t.stopped {
		t.stopped = true
		close(t.stop)
	}
	t.qmu.Unlock()
}

// release recycles a pooled payload once the transport is finished with
// it (written, dropped, or drained). Exactly one release happens per
// frame; shared broadcast payloads are never pooled.
func (t *transport) release(f outFrame) {
	if f.pooled {
		wire.PutBuf(f.payload)
	}
}

// abandon settles the accounting for a frame the transport gives up on.
func (t *transport) abandon(f outFrame) {
	t.stats.drops.Add(1)
	t.owner.c.acctSettle(t.to, f.epoch)
	t.release(f)
}

// enqueue hands a frame to the writer goroutine. On a persistently full
// queue the frame is dropped and settled rather than blocking the caller
// forever (backpressure with a bounded stall).
func (t *transport) enqueue(f outFrame) {
	t.qmu.Lock()
	if t.stopped {
		t.qmu.Unlock()
		t.abandon(f)
		return
	}
	select {
	case t.queue <- f:
		t.qmu.Unlock()
		return
	default:
	}
	t.qmu.Unlock()
	timer := time.NewTimer(enqueueTimeout)
	defer timer.Stop()
	select {
	case t.queue <- f:
	case <-t.stop:
		t.abandon(f)
	case <-timer.C:
		t.stats.queueDrops.Add(1)
		t.owner.c.acctSettle(t.to, f.epoch)
		t.release(f)
	}
}

// run is the writer goroutine: it drains the queue in order, delivering
// each frame (with retries) before touching the next, so per-link ordering
// is preserved and the receiver's duplicate filter stays a simple
// high-water mark. With IdleConnTimeout set it also reaps the connection
// after a quiet period; the sequence numbers live on the transport, not
// the connection, so the receiver's duplicate filter is unaffected by the
// re-dial.
func (t *transport) run() {
	defer t.owner.wg.Done()
	var idle *time.Timer
	var idleC <-chan time.Time
	if t.cfg.IdleConnTimeout > 0 {
		idle = time.NewTimer(t.cfg.IdleConnTimeout)
		idleC = idle.C
		defer idle.Stop()
	}
	for {
		select {
		case <-t.stop:
			t.drain()
			return
		case f := <-t.queue:
			t.deliverBatch(t.collect(f))
			if idle != nil {
				if !idle.Stop() {
					select {
					case <-idle.C:
					default:
					}
				}
				idle.Reset(t.cfg.IdleConnTimeout)
			}
		case <-idleC:
			t.closeConn()
			idle.Reset(t.cfg.IdleConnTimeout)
		}
	}
}

// drain settles every frame still queued at halt time. A short grace
// window catches senders that were already blocked in enqueue when the
// transport halted.
func (t *transport) drain() {
	defer t.closeConn()
	for {
		select {
		case f := <-t.queue:
			t.abandon(f)
		case <-time.After(10 * time.Millisecond):
			return
		}
	}
}

// watchConn camps on a read of the outbound connection for its whole
// life. The protocol is strictly one-way (receivers answer on their own
// links, never on the inbound socket), so the read only ever returns
// when the peer is gone — EOF from a closed listener socket, a reset, or
// our own closeConn. Closing the conn right then makes the next write
// fail immediately instead of "succeeding" into the send buffer of a
// connection whose peer died, which matters for exactly-once
// accounting: a frame the sender believes delivered is settled by
// nobody. (The pre-batching writer got this detection by accident — its
// separate header write drew the peer's RST before the payload write —
// and the single-write fast path must not lose it.)
func watchConn(conn net.Conn) {
	var p [1]byte
	conn.Read(p[:]) //nolint:errcheck // any return means the link is dead
	conn.Close()
}

func (t *transport) closeConn() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

// sleep waits d unless the transport halts first.
func (t *transport) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-t.stop:
		return false
	case <-timer.C:
		return true
	}
}

// backoff returns the jittered exponential backoff before retry #attempt
// (attempt >= 1): half the doubled-and-capped base plus a random half.
func (t *transport) backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= t.cfg.BackoffMax {
			d = t.cfg.BackoffMax
			break
		}
	}
	if d > t.cfg.BackoffMax {
		d = t.cfg.BackoffMax
	}
	return d/2 + time.Duration(t.rng.Int63n(int64(d/2)+1))
}

// writeEnv writes one encoded delivery, retrying with backoff and
// reconnection up to the retry budget, and reports whether a write
// succeeded. Fault injection, dialing, deadlines, and suspicion all live
// here.
func (t *transport) writeEnv(env []byte) bool {
	dialFailed := false
	for attempt := 0; attempt <= t.cfg.RetryBudget; attempt++ {
		if attempt > 0 {
			t.stats.retries.Add(1)
			if !t.sleep(t.backoff(attempt)) {
				return false
			}
		}
		switch t.faults.next() {
		case faultDrop:
			t.stats.faultDrops.Add(1)
			continue // the sender observes a lost write and retries
		case faultDelay:
			t.stats.faultDelays.Add(1)
			if !t.sleep(t.faults.delayFor()) {
				return false
			}
		case faultReset:
			t.stats.faultResets.Add(1)
			t.closeConn()
		}
		if t.conn == nil {
			conn, err := net.DialTimeout("tcp", t.owner.c.node(t.to).listenAddr(), t.cfg.DialTimeout)
			if err != nil {
				t.stats.dialErrors.Add(1)
				dialFailed = true
				continue
			}
			t.stats.dials.Add(1)
			if t.everDialed {
				t.stats.redials.Add(1)
			}
			t.everDialed = true
			t.conn = conn
			go watchConn(conn)
		}
		if err := t.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			// A connection that cannot even take a deadline is dead.
			t.stats.sendErrors.Add(1)
			t.closeConn()
			continue
		}
		if err := wire.WriteFrame(t.conn, env); err != nil {
			t.stats.sendErrors.Add(1)
			t.closeConn()
			continue
		}
		t.stats.sends.Add(1)
		t.stats.bytesTotal.Add(int64(len(env) + 4))
		t.faults.sent()
		return true
	}
	// Budget exhausted. Only hard evidence raises a suspicion: every dial
	// failed and no connection was ever held for this delivery — the
	// peer's listener is gone, not merely slow or lossy (a fault-plan
	// drop storm keeps its connection and must not mark the peer Down).
	if t.conn == nil && dialFailed {
		t.owner.suspect(t.to)
	}
	return false
}

// collect coalesces the first frame with whatever else arrives before
// the flush: the queue is drained without waiting first, then the batch
// holds for the flush deadline, and either the size threshold, the
// frame cap, or the deadline closes it. The returned slice is writer
// scratch, valid until the next collect.
func (t *transport) collect(first outFrame) []outFrame {
	t.batch = append(t.batch[:0], first)
	size := len(first.payload)
	for size < maxBatchBytes && len(t.batch) < maxBatchFrames {
		select {
		case f := <-t.queue:
			t.batch = append(t.batch, f)
			size += len(f.payload)
			continue
		default:
		}
		break
	}
	if size >= maxBatchBytes || len(t.batch) >= maxBatchFrames {
		return t.batch
	}
	deadline := time.NewTimer(t.cfg.BatchFlush)
	defer deadline.Stop()
	for size < maxBatchBytes && len(t.batch) < maxBatchFrames {
		select {
		case f := <-t.queue:
			t.batch = append(t.batch, f)
			size += len(f.payload)
		case <-deadline.C:
			return t.batch
		case <-t.stop:
			// Halting: flush what is held; the run loop's drain settles
			// whatever is still queued.
			return t.batch
		}
	}
	return t.batch
}

// deliverBatch writes a flush as one frameBatch delivery — one write
// syscall for the whole flush, however many frames it holds, one
// included. Each sub-frame keeps its own sequence number and accounting
// epoch inside the batch body, so the receiver dedups and settles per
// sub-frame and a redelivered batch is suppressed frame by frame. A
// batch that exhausts the retry budget is dropped and every frame's
// accounting settled, so Quiesce cannot wedge on it.
func (t *transport) deliverBatch(batch []outFrame) {
	entries := t.entries[:0]
	for i := range batch {
		t.seq++
		entries = append(entries, wire.BatchEntry{
			Seq: t.seq, Epoch: batch[i].epoch, Payload: batch[i].payload,
			Group: batch[i].group, Tail: batch[i].provBytes,
		})
	}
	hdr := appendDeliveryHeader(wire.GetBuf(), t.owner.addr, t.owner.incarnation.Load())
	env, sizes := wire.AppendBatch(hdr, entries, true, t.sizes[:0])
	t.sizes = sizes
	for i := range entries {
		entries[i].Payload = nil
	}
	t.entries = entries
	// The payloads are copied into the batch buffer; pooled ones recycle
	// now, before the (possibly long) retry loop.
	for i := range batch {
		t.release(batch[i])
		batch[i].payload = nil
	}
	if t.writeEnv(env) {
		// Per-class attribution stays exact under coalescing: each
		// sub-frame's encoded section goes to its own class — of a tuple
		// frame's section, the bytes that came out of its metadata tail
		// (what the delta did not elide, entries[i].Tail) to prov and the
		// rest to base — and the remaining bytes — length prefix, delivery
		// header, per-entry seq/epoch deltas — are the batch class, so the
		// class sums still reconcile with the link totals byte for byte.
		lb := t.owner.linkBytesTo(t.to)
		payloadBytes := 0
		for i := range batch {
			lb.add(batch[i].class, sizes[i], entries[i].Tail)
			payloadBytes += sizes[i]
		}
		lb.add(classBatch, len(env)+4-payloadBytes, 0)
		t.stats.batchFrames.Add(int64(len(batch)))
	} else {
		for i := range batch {
			t.stats.drops.Add(1)
			t.owner.c.acctSettle(t.to, batch[i].epoch)
		}
	}
	wire.PutBuf(env)
}
