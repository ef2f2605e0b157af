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
	// RetryBudget is how many times a failed send is retried (with a
	// fresh dial if needed) before the frame is dropped (default 4).
	RetryBudget int
	// BackoffMax caps the retry backoff, which starts at backoffBase and
	// doubles per attempt with jitter (default 200ms).
	BackoffMax time.Duration
}

func (tc TransportConfig) withDefaults() TransportConfig {
	if tc.RetryBudget <= 0 {
		tc.RetryBudget = 4
	}
	if tc.BackoffMax <= 0 {
		tc.BackoffMax = 200 * time.Millisecond
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
	// dialTimeout bounds one connection attempt.
	dialTimeout = time.Second
	// writeTimeout is the per-send write deadline, so a stalled peer
	// cannot block a sender forever.
	writeTimeout = 2 * time.Second
	// backoffBase is the first retry backoff.
	backoffBase = 2 * time.Millisecond
	// maxBatchBytes closes a batch once its sub-frame payloads reach
	// this size: one frameBatch delivery, one write syscall.
	maxBatchBytes = 64 << 10
	// maxBatchFrames caps the sub-frame count of one batch. It stays well
	// under both the receiver's dedup window (so a redelivered batch's
	// seqs are all still tracked) and wire.MaxBatchEntries.
	maxBatchFrames = 512
	// batchLinger is how long an open batch waits for companions before
	// it is written: the latency a frame pays under trickle load for the
	// batching that delta coding and one write per batch rely on.
	batchLinger = time.Millisecond
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

// linkBytes is the per-(sender, peer) byte attribution: the bytes
// written and their split by class. The link's persistent counters live
// on the sending node, not the transport, because Kill discards
// transports while the paper-style bandwidth breakdown must survive
// crash/restart cycles; they are guarded by the node's linkMu, under
// which a written batch adds its total and its classes in one step, so no
// snapshot sees one without the other.
type linkBytes struct {
	total int64
	class [classBatch + 1]int64
}

// add attributes one encoded section of wireBytes total bytes, of which
// provBytes (≤ wireBytes) carried piggybacked provenance metadata.
func (lb *linkBytes) add(class uint8, wireBytes, provBytes int) {
	lb.total += int64(wireBytes)
	if class == classBase {
		provBytes = min(provBytes, wireBytes)
		lb.class[classProv] += int64(provBytes)
		wireBytes -= provBytes
	}
	lb.class[class] += int64(wireBytes)
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
	FaultDrops   int64 // writes failed by the fault plan
	FaultDelays  int64 // writes stalled by the fault plan
	FaultResets  int64 // connections torn mid-frame by the fault plan
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

// transport is one directed link: a linkSched drained by a dedicated
// writer goroutine that dials (and re-dials) the peer, applies write
// deadlines, and retries failed sends with exponential backoff and
// jitter. Exactly one transport exists per (sender node, peer) pair at a
// time, so frames carry strictly increasing sequence numbers in write
// order and the receiver can suppress redelivered duplicates with a
// per-sender high-water mark.
type transport struct {
	owner *Node
	to    types.NodeAddr
	cfg   TransportConfig
	stats *transportStats
	bytes *linkBytes // the node's persistent counters for this link

	mu    sync.Mutex
	sched linkSched
	room  sync.Cond // on mu: queue space freed, halt, or a waiter's timeout

	kick chan struct{} // wakes the writer: a frame was offered
	stop chan struct{} // closed at halt: wakes the writer, aborts its sleeps
	dial func() (net.Conn, error)

	// What a stuck Quiesce reports about the writer.
	writing atomic.Bool   // a batch is in writeEnv
	written atomic.Uint64 // the last seq of the last batch written

	// Writer-goroutine state (no locking needed).
	conn       net.Conn
	everDialed bool
	seq        uint64
	rng        *rand.Rand

	// Encoding scratch, reused across batches by the writer goroutine.
	entries []wire.BatchEntry
	sizes   []int
}

// newTransport builds n's link to a peer, which connects through dial.
func newTransport(n *Node, to types.NodeAddr, dial func() (net.Conn, error)) *transport {
	t := &transport{
		owner: n,
		to:    to,
		cfg:   n.c.tcfg,
		stats: &n.stats,
		bytes: n.linkBytesTo(to),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		dial:  dial,
		rng:   rand.New(rand.NewSource(linkSeed(1, n.addr, to))),
	}
	t.room.L = &t.mu
	return t
}

// halt stops the link: later frames are refused, and the writer writes
// its open batch, settles the frames still waiting and exits.
func (t *transport) halt() {
	t.mu.Lock()
	if !t.sched.halted {
		t.sched.halted = true
		close(t.stop)
		t.room.Broadcast()
	}
	t.mu.Unlock()
}

// release recycles a pooled payload once the transport is finished with
// it (written, dropped, or drained). Exactly one release happens per
// frame; shared broadcast payloads are never pooled.
func (t *transport) release(f outFrame) {
	if f.pooled {
		wire.PutBuf(f.payload)
	}
}

// abandon settles the accounting for a frame the transport gives up on,
// counting it in dropped.
func (t *transport) abandon(f outFrame, dropped *atomic.Int64) {
	dropped.Add(1)
	t.owner.c.acctSettle(t.to, f.epoch)
	t.release(f)
}

// enqueue offers a frame to the link. On a persistently full queue the
// frame is dropped and settled rather than blocking the caller forever
// (backpressure with a bounded stall), and the refusal is returned as
// ErrQueueFull; on a halted link it is settled at once.
func (t *transport) enqueue(f outFrame) error {
	t.mu.Lock()
	var deadline time.Time
	for !t.sched.offer(f) {
		if t.sched.halted {
			t.mu.Unlock()
			t.abandon(f, &t.stats.drops)
			return nil
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(enqueueTimeout)
			defer time.AfterFunc(enqueueTimeout, func() {
				t.mu.Lock()
				t.room.Broadcast()
				t.mu.Unlock()
			}).Stop()
		} else if !time.Now().Before(deadline) {
			t.mu.Unlock()
			t.abandon(f, &t.stats.queueDrops)
			return ErrQueueFull
		}
		t.room.Wait()
	}
	t.mu.Unlock()
	select { // wake the writer; one pending wake suffices
	case t.kick <- struct{}{}:
	default:
	}
	return nil
}

// run is the writer goroutine. It writes each due batch (with retries)
// before asking for the next, so per-link order is preserved and the
// receiver's duplicate filter stays a simple high-water mark. Between
// batches it sleeps on one reusable timer until the open batch is due or
// an offer or halt wakes it; a stale or early wake costs one more look.
// Once halted it settles the frames no batch took and exits.
func (t *transport) run() {
	defer t.owner.wg.Done()
	defer t.closeConn()
	timer := time.NewTimer(batchLinger)
	var armed time.Time // the deadline timer was last set for
	for {
		t.mu.Lock()
		now := time.Now()
		batch, due := t.sched.next(now)
		t.room.Broadcast()
		var rest []outFrame
		halted := t.sched.halted
		if halted && batch == nil {
			rest, t.sched.waiting = t.sched.waiting, nil
		}
		t.mu.Unlock()
		if batch != nil {
			t.deliverBatch(batch)
			continue
		}
		if halted {
			for _, f := range rest {
				t.abandon(f, &t.stats.drops)
			}
			return
		}
		if due != armed && !due.IsZero() {
			timer.Reset(due.Sub(now))
		}
		armed = due
		select {
		case <-t.kick:
		case <-t.stop:
		case <-timer.C:
			armed = time.Time{}
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
// nobody.
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
// succeeded. Dialing, deadlines, and suspicion all live here. Every
// failed write takes the one path: close the connection, back off, and
// retry on a fresh one.
func (t *transport) writeEnv(env []byte) bool {
	dialFailed := false
	for attempt := 0; attempt <= t.cfg.RetryBudget; attempt++ {
		if attempt > 0 {
			t.stats.retries.Add(1)
			if !t.sleep(t.backoff(attempt)) {
				return false
			}
		}
		if t.conn == nil {
			conn, err := t.dial()
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
		return true
	}
	// Budget exhausted. Only hard evidence raises a suspicion: a dial
	// failed and no connection is held — the peer's listener is gone, not
	// merely slow or lossy (the writes of a drop storm fail on
	// connections that dial fine, and must not mark the peer Down).
	if t.conn == nil && dialFailed {
		t.owner.suspect(t.to)
	}
	return false
}

// deliverBatch writes a batch as one frameBatch delivery — one write
// syscall however many frames it holds, one included. Each sub-frame
// keeps its own sequence number and accounting epoch inside the batch
// body, so the receiver dedups and settles per sub-frame and a
// redelivered batch is suppressed frame by frame. A batch that exhausts
// the retry budget is dropped and every frame's accounting settled, so
// Quiesce cannot wedge on it.
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
	// Per-class attribution stays exact under coalescing: each
	// sub-frame's encoded section goes to its own class — of a tuple
	// frame's section, the bytes that came out of its metadata tail (what
	// the delta did not elide, entries[i].Tail) to prov and the rest to
	// base — and the remaining bytes — length prefix, delivery header,
	// per-entry seq/epoch deltas — are the batch class, so the class sums
	// reconcile with the link total byte for byte.
	var split linkBytes
	payloadBytes := 0
	for i := range batch {
		split.add(batch[i].class, sizes[i], entries[i].Tail)
		payloadBytes += sizes[i]
		// The payload is copied into the batch buffer; a pooled one
		// recycles now, before the (possibly long) retry loop.
		t.release(batch[i])
		entries[i].Payload, batch[i].payload = nil, nil
	}
	split.add(classBatch, len(env)+4-payloadBytes, 0)
	t.entries = entries
	// The batch stays in flight until its bytes are attributed, so once
	// Quiesce returns every written byte is counted.
	c := t.owner.c
	c.inflight.Add(1)
	t.writing.Store(true)
	ok := t.writeEnv(env)
	t.writing.Store(false)
	if ok {
		t.written.Store(t.seq)
		t.owner.linkMu.Lock()
		t.bytes.total += split.total
		for i, b := range split.class {
			t.bytes.class[i] += b
		}
		t.owner.linkMu.Unlock()
		t.stats.batchFrames.Add(int64(len(batch)))
	} else {
		for i := range batch {
			t.stats.drops.Add(1)
			c.acctSettle(t.to, batch[i].epoch)
		}
	}
	if c.inflight.Add(-1) == 0 {
		c.kickIdle()
	}
	wire.PutBuf(env)
}
