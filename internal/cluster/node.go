package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"provcompress/internal/core"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// acceptLoop accepts peer connections and spawns a reader per connection.
// It takes the listener as an argument because Restart replaces n.ln.
func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.inMu.Lock()
		n.inConns[conn] = struct{}{}
		n.inMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes frames from one connection and dispatches them.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.inMu.Lock()
		delete(n.inConns, conn)
		n.inMu.Unlock()
		conn.Close()
	}()
	// One reusable buffer serves the connection's whole life: frames are
	// handled synchronously and everything retained past handleFrame
	// (decoded tuples, walk frames) is copied out of the raw bytes, so
	// the steady state reads with zero per-frame allocation.
	var buf []byte
	for {
		payload, err := wire.ReadFrameBuf(conn, buf)
		if err != nil {
			return
		}
		buf = payload[:cap(payload)]
		n.handleFrame(payload)
	}
}

// dedupWindow is how far behind the newest seq a frame may arrive and
// still be judged on the seen-set; anything older is treated as a
// duplicate. Reordering only happens when a retried stream overlaps the
// tail of a dying connection, which spans at most the outbound queue, so
// the window is comfortably larger than any queue. It is a multiple of
// 64, the seen-ring's word size.
const dedupWindow = 1 << 13

// seenDuplicate records the (incarnation, seq) of a sender's frame and
// reports whether it was already delivered. A strict high-water mark is
// not enough: after a connection reset, frames buffered on the dying
// connection can be read after newer frames on its replacement, so the
// filter keeps the last dedupWindow seqs per sender (seqTracker) and only
// duplicates (same seq delivered twice) are suppressed — reordered firsts
// are accepted. A lower incarnation is a frame from before the sender's
// last restart.
func (n *Node) seenDuplicate(from types.NodeAddr, inc, seq uint64) bool {
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	st := n.lastSeq[from]
	if st == nil {
		st = &seqTracker{inc: inc}
		n.lastSeq[from] = st
	} else if inc > st.inc {
		*st = seqTracker{inc: inc}
	} else if inc < st.inc {
		return true // stream from before the sender's restart
	}
	return st.seenOrMark(seq)
}

// handleFrame processes one transport delivery: a batch of N ≥ 1
// sub-frames, each with its own (seq, epoch), dispatched in order after
// the whole batch decoded (so a corrupt batch is dropped atomically).
// Dedup runs per sub-frame: a redelivered batch whose first copy arrived
// is N suppressed duplicates, never a double apply.
func (n *Node) handleFrame(payload []byte) {
	d := wire.NewNamedDecoder(payload, n.c.names)
	h, err := decodeDeliveryHeader(d)
	if err != nil {
		// Malformed header: the epoch is unreadable, floor guards the
		// counter. A delivery of another format version is the one kind
		// worth telling apart — it means a peer runs different code.
		if errors.Is(err, errFormatVersion) {
			n.stats.versionDrops.Add(1)
		}
		return
	}
	entries, err := wire.DecodeBatch(d)
	if err != nil {
		return // malformed batch: nothing was counted for it
	}
	for _, ent := range entries {
		if n.seenDuplicate(h.from, h.inc, ent.Seq) {
			n.stats.dups.Add(1)
			continue
		}
		n.dispatch(h.from, wire.NewNamedDecoder(ent.Payload, n.c.names), ent.Epoch)
	}
}

// dispatch processes one frame already past the duplicate filter. The
// frame's in-flight accounting settles when processing (including any
// follow-up sends) completes. Event tuples are not processed inline:
// they are routed to the shard owning their equivalence class, and the
// shard worker settles them after the pipeline step ran.
func (n *Node) dispatch(from types.NodeAddr, d *wire.Decoder, epoch uint64) {
	settled := false
	defer func() {
		if !settled {
			n.c.acctSettle(n.addr, epoch)
		}
	}()
	kind := d.U8()
	switch kind {
	case frameTuple:
		f, err := decodeTupleFrame(d)
		if err != nil {
			return
		}
		settled = true // the shard worker settles after processing
		n.enqueueShard(f, epoch, n.incarnation.Load())
	case frameSig:
		n.applySig()
	case frameWalk:
		f, err := decodeWalkFrame(d)
		if err != nil {
			return
		}
		n.handleWalk(f)
	case frameResult:
		f, err := decodeWalkFrame(d)
		if err != nil {
			return
		}
		n.pendMu.Lock()
		ch := n.pending[f.QID]
		delete(n.pending, f.QID)
		n.pendMu.Unlock()
		if ch == nil {
			// The result lost the race against the query timeout that
			// unregistered the channel; count it so the loss is visible.
			n.stats.lateResults.Add(1)
			return
		}
		ch <- f
	case frameView:
		v, err := decodeViewFrame(d)
		if err != nil {
			return
		}
		n.handleView(v)
	case frameRepl:
		owner, rec, err := decodeReplFrame(d)
		if err != nil {
			return
		}
		n.handleRepl(owner, rec)
	case frameHandoff:
		owner, hid, acked, snap, err := decodeHandoffFrame(d)
		if err != nil {
			return
		}
		n.handleHandoff(from, owner, hid, acked, snap)
	case frameHandoffAck:
		hid, _, err := decodeHandoffAckFrame(d)
		if err != nil {
			return
		}
		n.handleHandoffAck(hid)
	case frameRepairReq:
		owner, err := decodeRepairReqFrame(d)
		if err != nil {
			return
		}
		n.handleRepairReq(from, owner)
	}
}

// shardWork is one event tuple traveling from the frame decoder (or the
// local queue) to the shard worker owning its equivalence class, carrying
// the in-flight epoch it must settle under and the node incarnation that
// received it.
type shardWork struct {
	f     *tupleFrame
	epoch uint64
	inc   uint64
}

// enqueueShard hands an event tuple to its equivalence-class shard. A full
// shard queue blocks the reader (backpressure through TCP) or the local
// drainer; a closing cluster settles the frame instead, matching the
// kill-drain accounting. inc is the incarnation that received the frame.
func (n *Node) enqueueShard(f *tupleFrame, epoch, inc uint64) {
	select {
	case n.shardCh[n.c.shardOf(f.Tuple)] <- shardWork{f: f, epoch: epoch, inc: inc}:
	case <-n.c.stopCh:
		n.c.acctSettle(n.addr, epoch)
	}
}

// shardBatch is the memory of one shard worker, reused by every batch it
// runs: the works it took, the evaluation buffer its steps share
// (evalBuf), the batch's own-partition frames, the heads they derived and
// the record their write logs.
type shardBatch struct {
	works []shardWork
	own   []*tupleFrame
	heads []tupleFrame
	eval  evalBuf
	rec   walBatch
}

// shardWorker drains one shard queue for the life of the cluster. Woken by
// one work, it also takes whatever already waits behind it, up to
// maxWriteBatch, and never waits for more: under light load a batch is one
// frame. Events queued behind a node crash are dropped — while the node
// is dead, and after its restart too, since they carry the incarnation
// that received them (the crash drain already retired their accounting,
// so the settle here is a no-op for them). Each work settles once its
// batch has run and shipped.
func (n *Node) shardWorker(ch chan shardWork) {
	defer n.wg.Done()
	var b shardBatch
	for {
		select {
		case <-n.c.stopCh:
			return
		case w := <-ch:
			b.works = append(b.works[:0], w)
		drain:
			for len(b.works) < maxWriteBatch {
				select {
				case w := <-ch:
					b.works = append(b.works, w)
				default:
					break drain
				}
			}
			n.processBatch(&b)
			for i := range b.works {
				n.c.acctSettle(n.addr, b.works[i].epoch)
				b.works[i] = shardWork{}
			}
		}
	}
}

// processBatch runs the pipeline step for the tuples of one batch, in
// order, and ships the heads they derived. The tuples located here go
// through the owner write path together (ownSteps), and their heads ship
// after it, outside any lock. A redirected tuple — its owner has Left and
// this node is the acting owner of the partition (membership.go) — steps
// and ships on its own: hosted applies are RAM-only, since the departed
// owner's WAL is closed, and re-replicating on its behalf would need its
// identity — the cooperative-leave caveat DESIGN.md documents.
func (n *Node) processBatch(b *shardBatch) {
	own := b.own[:0]
	for _, w := range b.works {
		if !n.alive.Load() || w.inc != n.incarnation.Load() {
			continue
		}
		if loc := w.f.Tuple.Loc(); loc != n.addr {
			if p := n.partitionFor(loc, true); p != nil {
				b.heads = n.shipAll(p.step(n, w.f, true, b.heads[:0], &b.eval))
			}
			continue
		}
		own = append(own, w.f)
	}
	if len(own) > 0 {
		b.heads = n.shipAll(n.ownSteps(own, b.heads[:0], &b.eval, &b.rec))
	}
	clear(own) // nothing the batch held stays reachable from the worker
	b.own = own[:0]
}

// ownSteps runs the pipeline step for frames, in order, on this member's
// own partition through one owner write (durability.go) and appends the
// heads to ship to out. The write's record holds an entry for each frame
// whose apply changes recoverable state (partition.changesState); rec is
// the caller's record buffer.
func (n *Node) ownSteps(frames []*tupleFrame, out []tupleFrame, buf *evalBuf, rec *walBatch) []tupleFrame {
	n.write(func() []byte {
		rec.reset()
		for _, f := range frames {
			if n.self.changesState(n.c, f) {
				rec.event(f)
			}
		}
		return rec.bytes()
	}, func() {
		for _, f := range frames {
			out = n.self.step(n, f, true, out, buf)
		}
	})
	return out
}

// shipAll sends the derived heads of one step, each to its location, and
// returns their buffer emptied for the next step. It runs inside the
// node's message loop, so a head for this node itself is admitted to the
// local queue without waiting.
func (n *Node) shipAll(heads []tupleFrame) []tupleFrame {
	for i := range heads {
		n.sendTuple(&heads[i], false) //nolint:errcheck // a send the node cannot even enqueue is a drop
	}
	clear(heads)
	return heads[:0]
}

// maxWalkHops caps a walk's node visits; a walk still traveling past it
// is bouncing between members whose views disagree about who can serve,
// and returns Partial instead of orbiting forever.
const maxWalkHops = 1024

// handleWalk advances a traveling provenance query: it steps the walk
// through every worklist reference this node can serve, then forwards it
// (routing around dead members) or returns the result. A walk that needs a
// member nobody reachable can stand in for returns Partial, so the querier
// fails fast instead of spending its retry budget.
func (n *Node) handleWalk(f *walkFrame) {
	sp := n.c.startSpan(f.Trace, n.addr, "walk", f.Root.Rel)
	defer sp.End()
	f.Step(n.walkHost)

	f.Hops++
	if sp != nil {
		// Re-parent the frame under this hop's span so the next node (or
		// the querier's reconstruction) chains beneath it.
		sp.SetAttr("hop", strconv.FormatUint(uint64(f.Hops), 10))
		sp.SetAttr("entries", strconv.Itoa(len(f.Entries)))
		f.Trace = sp.Context()
	}
	to, kind := f.Querier, uint8(frameResult)
	if len(f.Work) > 0 {
		target := n.routeWalk(f.Work[len(f.Work)-1].Loc)
		if target == "" || target == n.addr || f.Hops >= maxWalkHops {
			f.Partial = true
			n.c.memb.partialWalks.Add(1)
			if sp != nil {
				sp.SetAttr("partial", "true")
			}
		} else {
			to, kind = target, frameWalk
		}
	}
	n.sendOwned(to, f.encode(kind), classQuery, 0) //nolint:errcheck // a lost walk is the querier's timeout and retry
}

// walkHost is this node's serve predicate for a walk step: its own refs
// always, another member's while that owner is unreachable and a copy of
// its partition is held here (canServe) — each with the state, database
// and mutex of the partition holding them.
func (n *Node) walkHost(loc types.NodeAddr) (core.WalkHost, bool) {
	if !n.canServe(loc) {
		return core.WalkHost{}, false
	}
	p := n.partitionFor(loc, false)
	return core.WalkHost{State: p.state, DB: p.db, Mu: &p.mu}, true
}

// send hands an encoded frame to the fault-tolerant transport for the
// peer — or to the local queue when the peer is this node (local.go) —
// counting it in flight. class and provBytes drive the per-link byte
// attribution when the write eventually succeeds. The actual
// dial/write/retry happens on the link's writer goroutine, so handlers
// never block on the network; every counted frame is settled exactly
// once, by whichever side finishes with it.
func (n *Node) send(to types.NodeAddr, frame []byte, class uint8, provBytes int) error {
	return n.sendFrame(to, outFrame{payload: frame, class: class, provBytes: provBytes})
}

// sendOwned is send for a frame whose buffer came from the wire buffer
// pool and belongs to this delivery alone (tuple shipments, walk
// frames): the transport recycles it once the frame settles. Broadcast
// frames shared across peers must use send.
func (n *Node) sendOwned(to types.NodeAddr, frame []byte, class uint8, provBytes int) error {
	return n.sendFrame(to, outFrame{payload: frame, class: class, provBytes: provBytes, pooled: true})
}

// sendFrame enqueues f (everything but its epoch filled in) for to. A
// frame that routes to this node itself goes to the local queue, admitted
// without waiting.
func (n *Node) sendFrame(to types.NodeAddr, f outFrame) error {
	to, err := n.dest(to)
	if err != nil {
		return err
	}
	if to == n.addr {
		return n.putLocal(localFrame{payload: f.payload, pooled: f.pooled}, false)
	}
	return n.sendLink(to, f)
}

// sendTuple sends a tuple frame to the member at its tuple's location. A
// frame that routes to this node itself is handed to the local queue as a
// copy of f, unencoded; wait says the sender is outside the node's message
// loop and waits for room there (localQueue). A frame for another member
// is encoded into a pooled buffer its link recycles, the piggybacked
// metadata attributed to the provenance byte class and the head's
// equivalence class its batch delta group. f does not escape.
func (n *Node) sendTuple(f *tupleFrame, wait bool) error {
	to, err := n.dest(f.Tuple.Loc())
	if err != nil {
		return err
	}
	if to == n.addr {
		own := new(tupleFrame)
		*own = *f
		return n.putLocal(localFrame{tuple: own}, wait)
	}
	return n.sendLink(to, f.outFrame())
}

// dest resolves where a frame addressed to `to` goes.
func (n *Node) dest(to types.NodeAddr) (types.NodeAddr, error) {
	if n.c.closed.Load() {
		return "", fmt.Errorf("cluster: send on closed cluster")
	}
	if n.downLeft.Load() != 0 {
		// A frame addressed to a departed (Left) member redirects to the
		// acting owner of its partition; Down members keep their traffic
		// (the retry budget delivers it when they return).
		to = n.routeFor(to)
	}
	if n.c.node(to) == nil {
		return "", fmt.Errorf("cluster: send to unknown node %s", to)
	}
	return to, nil
}

// sendLink enqueues f on the link to another member; ErrQueueFull says
// the link's queue stayed full for enqueueTimeout and f was dropped.
func (n *Node) sendLink(to types.NodeAddr, f outFrame) error {
	t := n.transportTo(to)
	if t == nil {
		return fmt.Errorf("cluster: send from dead node %s", n.addr)
	}
	f.epoch = n.c.acctEnqueue(to)
	return t.enqueue(f)
}

// putLocal counts f in flight to this node and queues it for local
// delivery; ErrQueueFull says the queue stayed full for enqueueTimeout
// and f was dropped.
func (n *Node) putLocal(f localFrame, wait bool) error {
	q := n.local.Load()
	if q == nil {
		return fmt.Errorf("cluster: send from dead node %s", n.addr)
	}
	f.epoch = n.c.acctEnqueue(n.addr)
	return q.put(f, wait)
}

// startSpan opens a child span named "<kind> <subject>" under a propagated
// context; it returns nil (a no-op span) when tracing is off or the
// incoming frame was untraced, so untraced traffic never fabricates
// single-hop traces — and never pays for building the name.
func (c *Cluster) startSpan(parent trace.SpanContext, node types.NodeAddr, kind, subject string) *trace.ActiveSpan {
	if c.tracer == nil || !parent.Valid() {
		return nil
	}
	return c.tracer.StartSpan(parent, string(node), kind, kind+" "+subject)
}

// transportTo returns (creating on first use) the outbound link to a
// peer; nil once Kill has cleared alive, so no link outlives its halt.
// A node has no link to itself (sendFrame).
func (n *Node) transportTo(to types.NodeAddr) *transport {
	n.transMu.Lock()
	defer n.transMu.Unlock()
	t := n.trans[to]
	if t == nil && n.alive.Load() {
		t = newTransport(n, to, n.c.dialer(n, to))
		n.trans[to] = t
		n.wg.Add(1)
		go t.run()
	}
	return t
}

// QueryResult is the outcome of a distributed query over the cluster.
type QueryResult struct {
	Trees   []*core.Tree
	Latency time.Duration
	Hops    int
	// TraceID names the query's span tree in the cluster's trace
	// collector (zero when tracing is off).
	TraceID trace.TraceID
	// InvalKeys is the sorted, duplicate-free set of invalidation keys
	// (invalkey.go) the answer depends on: the root output's (always
	// present, even for an empty answer) and those of every recorded
	// tuple and event ID — under Basic also of every rule execution — the
	// walk touched. A cache storing this result must evict it when any of
	// these keys fires through the cluster event hook.
	InvalKeys []uint64
}

// queryAttempts bounds how many times Query issues its walk: the first
// try plus one retry if the result frame never arrives before timeout
// (the walk or its result may have been lost to a fault).
const queryAttempts = 2

// Query retrieves the provenance of an output tuple over the real
// protocol: the walk starts at the output's node, travels the shared
// chains over TCP between nodes, and the reconstruction (TRANSFORM_TO_D)
// runs back at the querier. Pass types.ZeroID as evid for every stored
// derivation.
//
// timeout bounds each attempt; a walk whose result frame never returns is
// re-issued once before the query fails, so a single lost message does
// not fail the query.
func (c *Cluster) Query(out types.Tuple, evid types.ID, timeout time.Duration) (QueryResult, error) {
	return c.QueryContext(context.Background(), out, evid, timeout)
}

// QueryContext is Query with caller-driven cancellation: when ctx is done
// (an HTTP client disconnected, a deadline passed upstream), the in-flight
// wait aborts immediately instead of burning the full per-attempt timeout.
// Walk frames already traveling the cluster complete on their own; their
// results are counted as late (TransportStats.LateResults), never
// delivered to the canceled waiter.
func (c *Cluster) QueryContext(ctx context.Context, out types.Tuple, evid types.ID, timeout time.Duration) (QueryResult, error) {
	querier := c.node(out.Loc())
	if querier == nil || !querier.Alive() {
		// The owner is unreachable: with replication on, a rendezvous
		// replica holding its partition shadow acts as the querier; the
		// suspicion teaches the acting querier's view so walk routing and
		// serving agree the owner is out.
		acting := c.failoverQuerier(out.Loc())
		if acting == nil {
			if querier == nil {
				return QueryResult{}, fmt.Errorf("cluster: query at unknown node %s", out)
			}
			return QueryResult{}, fmt.Errorf("cluster: query at dead node %s", out.Loc())
		}
		acting.suspect(out.Loc())
		c.memb.failovers.Add(1)
		querier = acting
	}
	// The query root span anchors the whole distributed walk's tree; a
	// nil tracer makes qsp a no-op and qctx the zero (untraced) context.
	var qsp *trace.ActiveSpan
	if c.tracer != nil {
		qsp = c.tracer.StartSpan(trace.SpanContext{}, string(querier.addr), "query", "query "+out.Rel)
		qsp.SetAttr("scheme", c.scheme)
	}
	qctx := qsp.Context()
	start := time.Now()
	for attempt := 0; attempt < queryAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			qsp.End()
			return QueryResult{}, err
		}
		if attempt > 0 {
			querier.stats.queryRetries.Add(1)
			qsp.SetAttr("retried", "true")
		}
		res, done, err := c.tryQuery(ctx, querier, out, evid, timeout, qctx)
		if err != nil {
			qsp.End()
			return QueryResult{}, err
		}
		if done {
			res.Latency = time.Since(start)
			res.TraceID = qctx.Trace
			qsp.End()
			return res, nil
		}
	}
	qsp.End()
	return QueryResult{}, errors.New("cluster: query timeout")
}

// tryQuery issues one walk and waits for its result; done=false means the
// attempt timed out and the caller may retry. qctx is the query root
// span's context (zero when untraced) the walk frames travel under. The
// walk anchors in the querier's copy of the output's partition: its own,
// or the shadow it holds when it is acting for a dead owner.
func (c *Cluster) tryQuery(ctx context.Context, querier *Node, out types.Tuple, evid types.ID, timeout time.Duration, qctx trace.SpanContext) (QueryResult, bool, error) {
	qid := c.nextQID.Add(1)
	ch := make(chan *walkFrame, 1)
	querier.pendMu.Lock()
	querier.pending[qid] = ch
	querier.pendMu.Unlock()
	unregister := func() {
		querier.pendMu.Lock()
		delete(querier.pending, qid)
		querier.pendMu.Unlock()
	}

	p := querier.partitionFor(out.Loc(), false)
	p.mu.Lock()
	f := &walkFrame{QID: qid, Querier: querier.addr, Trace: qctx, Walk: core.StartWalk(p.state, out, evid)}
	p.mu.Unlock()
	if len(f.Work) == 0 {
		unregister()
		// An empty answer is still cacheable: its key set ties it to the
		// root output's VID, which fires when provenance eventually lands.
		return QueryResult{InvalKeys: walkInvalKeys(&f.Walk, false)}, true, nil
	}
	// Start the walk by sending it to the first target — usually the
	// querier itself, which takes it in-process — routed around members
	// the view knows are out. An unroutable first hop fails the query
	// immediately: the membership view is exactly what keeps the retry
	// budget off known-dead peers.
	target := querier.routeWalk(f.Work[len(f.Work)-1].Loc)
	if target == "" {
		unregister()
		return QueryResult{}, true, fmt.Errorf("cluster: query needs unreachable member %s", f.Work[len(f.Work)-1].Loc)
	}
	if err := querier.sendOwned(target, f.encode(frameWalk), classQuery, 0); err != nil {
		unregister()
		return QueryResult{}, false, err
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.Partial {
			// The walk could not reach a member it needed and no replica
			// stood in. Retrying would hit the same outage, so fail now
			// with the retry budget unspent.
			return QueryResult{}, true, fmt.Errorf("cluster: query partial: a member the walk needs is unreachable")
		}
		// The reconstruction span parents under the last hop's span, so
		// the tree reads inject→walk…walk→reconstruct end to end.
		rsp := c.startSpan(res.Trace, querier.addr, "reconstruct", res.Root.Rel)
		trees := res.Trees(p.state, c.prog, c.funcs)
		rsp.SetAttr("trees", strconv.Itoa(len(trees)))
		rsp.End()
		return QueryResult{Trees: trees, Hops: int(res.Hops), InvalKeys: walkInvalKeys(&res.Walk, p.state.GainsLinks())}, true, nil
	case <-timer.C:
		unregister()
		return QueryResult{}, false, nil
	case <-ctx.Done():
		unregister()
		return QueryResult{}, false, ctx.Err()
	}
}

// walkInvalKeys derives a query answer's invalidation-key set at the
// querier, from the completed walk alone: the root output's VID key (the
// anchoring prov rows all sit on it); for every collected rule execution
// the key of every VID it recorded (resolved or not — a later
// insert/delete/graveyard eviction of that VID fires the same key, as does
// a further prov row on it, invalkey.go) and, where the scheme hangs
// predecessors off the execution as link rows (linked), its own RID; and
// the walk's event IDs, which Advanced resolves its leaf events by (the
// other schemes record the leaf event's VID). The set is sorted and
// duplicate-free (addInvalKey).
func walkInvalKeys(w *core.Walk, linked bool) []uint64 {
	keys := []uint64{VIDInvalKey(types.HashTuple(w.Root))}
	for _, ce := range w.Entries {
		if linked {
			keys = addInvalKey(keys, VIDInvalKey(ce.Entry.RID))
		}
		for _, vid := range ce.Entry.VIDs {
			keys = addInvalKey(keys, VIDInvalKey(vid))
		}
	}
	for _, evid := range w.EventIDs() {
		keys = addInvalKey(keys, VIDInvalKey(evid))
	}
	return keys
}
