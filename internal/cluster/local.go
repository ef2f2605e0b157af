package cluster

import (
	"sync"
	"time"

	"provcompress/internal/wire"
)

// localQueue is a node's delivery to itself. A frame whose routed
// destination is the sender's own address never touches a socket: it joins
// this FIFO and one drainer goroutine hands it on as a link's reader
// would — a tuple frame to its shard queue, any other frame to dispatch.
// The simulator's rule is the same (a From == To message is delivered
// locally and costs no link bytes), so the byte classes count socket bytes
// only.
//
// A tuple frame travels as the *tupleFrame its sender built: no encode, no
// decode, no name interning, no duplicate filter (nothing is ever resent).
// The rarer kinds — a sig broadcast's copy for the sender, a walk's first
// hop, a result for a querier that is this node — keep their encoded
// payload and go through dispatch unchanged, in FIFO order with the tuple
// frames.
//
// Admission keeps the shape a link's queue gives: Inject, the one sender
// outside the node's message loop that can flood the queue, waits while
// queueLen frames wait and is refused after enqueueTimeout (a queueDrop,
// and ErrQueueFull to the injector).
// A frame sent from inside the loop — a shard worker's heads, a result the
// drainer's own dispatch produces — is always admitted: its sender is what
// drains the queue, so making it wait is a wedge, not backpressure. No
// shard worker ever blocks here, and the loop's frames are bounded by the
// derivations in flight.
//
// Each incarnation of a node has its own queue: Kill halts it (as
// stopTransports halts a link), the drainer discards what it still holds,
// and every frame carries the queue's incarnation to its shard worker,
// which skips a frame from before the last restart. A frame queued before
// a crash is never applied after Restart.
type localQueue struct {
	n   *Node
	inc uint64 // the node's incarnation the queue serves

	mu     sync.Mutex
	ready  sync.Cond // on mu: a frame arrived or the queue halted
	room   sync.Cond // on mu: the drainer took the frames, halt, or a waiter's timeout
	frames []localFrame
	halted bool
}

// localFrame is one queued self-delivery: a tuple frame handed over whole,
// or (tuple nil) an encoded frame for dispatch, with the accounting epoch
// it settles under.
type localFrame struct {
	tuple   *tupleFrame
	payload []byte
	pooled  bool // payload came from the wire buffer pool and is recycled after dispatch
	epoch   uint64
}

// startLocal gives the node the queue of its current incarnation and
// starts the queue's drainer.
func (n *Node) startLocal() {
	q := &localQueue{n: n, inc: n.incarnation.Load()}
	q.ready.L = &q.mu
	q.room.L = &q.mu
	n.local.Store(q)
	n.wg.Add(1)
	go q.run()
}

// halt refuses later frames and makes the drainer discard the ones it has
// not handed on.
func (q *localQueue) halt() {
	q.mu.Lock()
	q.halted = true
	q.ready.Signal()
	q.room.Broadcast()
	q.mu.Unlock()
}

// put admits f. wait says the sender is outside the node's message loop
// and waits for room (see the type comment); a frame the queue refuses —
// halted, or full past enqueueTimeout — is settled at once. A refusal for
// room is returned as ErrQueueFull; a frame lost to a halt is not an
// error of the sender's.
func (q *localQueue) put(f localFrame, wait bool) error {
	q.mu.Lock()
	var deadline time.Time
	for wait && !q.halted && len(q.frames) >= queueLen {
		if deadline.IsZero() {
			deadline = time.Now().Add(enqueueTimeout)
			defer time.AfterFunc(enqueueTimeout, func() {
				q.mu.Lock()
				q.room.Broadcast()
				q.mu.Unlock()
			}).Stop()
		} else if !time.Now().Before(deadline) {
			q.mu.Unlock()
			q.n.stats.queueDrops.Add(1)
			q.discard(f)
			return ErrQueueFull
		}
		q.room.Wait()
	}
	if q.halted {
		q.mu.Unlock()
		q.discard(f)
		return nil
	}
	q.frames = append(q.frames, f)
	if len(q.frames) == 1 {
		q.ready.Signal()
	}
	q.mu.Unlock()
	return nil
}

// discard settles a frame the queue will not hand on. A frame lost to a
// halt is the crashed node's own memory, like the unread bytes of its
// sockets: the kill drain retired it, and no drop is counted.
func (q *localQueue) discard(f localFrame) {
	q.n.c.acctSettle(q.n.addr, f.epoch)
	if f.pooled {
		wire.PutBuf(f.payload)
	}
}

// waiting reports how many frames wait for the drainer.
func (q *localQueue) waiting() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.frames)
}

// run is the drainer: it takes every waiting frame at once and hands each
// on in order, blocking on a full shard queue as a link's reader does. A
// halted queue's frames, and those still in hand when the node dies, are
// discarded.
func (q *localQueue) run() {
	n := q.n
	defer n.wg.Done()
	var batch []localFrame
	for {
		q.mu.Lock()
		for len(q.frames) == 0 && !q.halted {
			q.ready.Wait()
		}
		batch, q.frames = q.frames, batch[:0]
		halted := q.halted
		q.room.Broadcast()
		q.mu.Unlock()
		for i := range batch {
			if halted || !n.alive.Load() || n.incarnation.Load() != q.inc {
				q.discard(batch[i])
			} else {
				q.deliver(batch[i])
			}
			batch[i] = localFrame{}
		}
		if halted {
			return
		}
	}
}

// deliver hands one frame on: a tuple frame to its shard, whose worker
// settles it; an encoded frame to dispatch, which settles it.
func (q *localQueue) deliver(f localFrame) {
	n := q.n
	if f.tuple != nil {
		n.enqueueShard(f.tuple, f.epoch, q.inc)
		return
	}
	n.dispatch(n.addr, wire.NewNamedDecoder(f.payload, n.c.names), f.epoch)
	if f.pooled {
		wire.PutBuf(f.payload)
	}
}
