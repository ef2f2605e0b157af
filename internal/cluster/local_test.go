package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/topo"
	"provcompress/internal/types"
)

// localSrc derives every head where its event is: nothing it derives ever
// leaves the node, so every frame after an injection is a node's delivery
// to itself. Each event fires r1 once per s row of its class, so a shard
// worker sends the local queue more frames than it takes from it.
const localSrc = `
r1 mid(@L, X, Y, Z) :- ev(@L, X, Y), s(@L, X, Z).
r2 out(@L, X, Y, Z) :- mid(@L, X, Y, Z), s(@L, X, Z).
`

// TestLocalDeliveryNeverLinksToItself: a node never opens a link to
// itself, and a full local queue does not wedge. A forwarding line and then
// a burst on a program whose every head is local — more events than one
// shard queue and the local queue hold together, injected without a pause
// into one shard worker per node — must each land every output with the
// Recorder's trees, with no self-link in the byte attribution, nothing
// dropped, and Quiesce returning.
func TestLocalDeliveryNeverLinksToItself(t *testing.T) {
	line := topo.Line(4, "n")
	fwd := walkWorkload{name: "forwarding", prog: apps.Forwarding(), funcs: apps.Funcs(),
		graph: line, base: line.ShortestPaths().RouteTuples()}
	for i := 0; i < 8; i++ {
		src, dst := fmt.Sprintf("n%d", i%4), fmt.Sprintf("n%d", 3-i%4)
		fwd.events = append(fwd.events, pkt(src, src, dst, fmt.Sprintf("p%d", i)))
	}

	pair := topo.Line(2, "n")
	local := walkWorkload{name: "local burst", prog: mustParse(t, localSrc), graph: pair}
	for _, addr := range pair.Nodes() {
		for x := int64(0); x < 4; x++ {
			for z := int64(0); z < 2; z++ {
				local.base = append(local.base, types.NewTuple("s", types.String(string(addr)), types.Int(x), types.Int(z)))
			}
		}
	}
	const burst = 2 * (shardQueueDepth + queueLen)
	for i := int64(0); i < burst; i++ {
		addr := pair.Nodes()[i%2]
		local.events = append(local.events, types.NewTuple("ev", types.String(string(addr)), types.Int(i%4), types.Int(i)))
	}

	for _, w := range []walkWorkload{fwd, local} {
		t.Run(w.name, func(t *testing.T) {
			rec := w.reference(t)
			c, err := New(Config{Prog: w.prog, Funcs: w.funcs, Nodes: w.graph.Nodes(), Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			if err := c.LoadBase(w.base); err != nil {
				t.Fatal(err)
			}
			// A wedged queue stalls Inject itself, so the burst runs under
			// a deadline of its own.
			done := make(chan error, 1)
			go func() {
				for _, ev := range w.events {
					if err := c.Inject(ev); err != nil {
						done <- err
						return
					}
				}
				done <- c.Quiesce(30 * time.Second)
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("the burst wedged: queue-drops %d", c.TransportStats().QueueDrops)
			}

			var want []string
			for _, tree := range rec.Trees() {
				want = append(want, tree.Output.String())
			}
			sort.Strings(want)
			if got := decodedOutputs(c); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("outputs differ from the Recorder's:\n--- got\n%s\n--- want\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			for _, tree := range rec.Trees() {
				res, err := c.Query(tree.Output, tree.EvID(), 10*time.Second)
				if err != nil {
					t.Fatalf("query %v: %v", tree.Output, err)
				}
				if wantTrees := rec.TreesFor(types.HashTuple(tree.Output), tree.EvID()); !sameTrees(res.Trees, wantTrees) {
					t.Fatalf("query %v: trees differ from simulation:\ngot  %v\nwant %v", tree.Output, res.Trees, wantTrees)
				}
			}

			for _, lb := range c.LinkByteStats() {
				if lb.From == lb.To {
					t.Errorf("%s holds a link to itself: %+v", lb.From, lb)
				}
			}
			for addr, n := range c.nodeMap() {
				n.transMu.Lock()
				if n.trans[addr] != nil {
					t.Errorf("%s has a transport to itself", addr)
				}
				n.transMu.Unlock()
			}
			if s := c.TransportStats(); s.QueueDrops != 0 || s.Drops != 0 {
				t.Errorf("queue-drops %d, drops %d; want 0, 0", s.QueueDrops, s.Drops)
			}
		})
	}
}

// TestLocalQueueRefusesWhenFull: an injector that finds queueLen frames
// waiting, and no drainer taking them, is refused after enqueueTimeout
// with ErrQueueFull, and one queue drop is counted; a frame sent from
// inside the node's loop is still admitted.
func TestLocalQueueRefusesWhenFull(t *testing.T) {
	c, err := New(Config{Prog: apps.Forwarding(), Funcs: apps.Funcs(), Nodes: topo.Line(2, "n").Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	n := c.node("n0")
	q := &localQueue{n: n, inc: n.incarnation.Load()} // no drainer
	q.ready.L = &q.mu
	q.room.L = &q.mu
	for i := 0; i < queueLen; i++ {
		if err := q.put(localFrame{}, true); err != nil {
			t.Fatalf("frame %d refused: %v", i, err)
		}
	}
	drops := n.stats.queueDrops.Load()
	if err := q.put(localFrame{}, true); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("put on a full queue = %v, want ErrQueueFull", err)
	}
	if got := n.stats.queueDrops.Load() - drops; got != 1 {
		t.Errorf("%d queue drops counted, want 1", got)
	}
	if err := q.put(localFrame{}, false); err != nil || q.waiting() != queueLen+1 {
		t.Errorf("a frame from inside the loop: %v, %d waiting; want admitted", err, q.waiting())
	}
}
