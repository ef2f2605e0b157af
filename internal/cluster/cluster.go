// Package cluster is the real-socket deployment of the system: every node
// is a goroutine with its own TCP listener, tuples and provenance-query
// messages between nodes travel as length-prefixed binary frames over
// loopback connections, and provenance is maintained with any of the three
// schemes (ExSPAN, Basic, or the Section 5 equivalence-based Advanced
// compression). A message a node addresses to itself — an injected event
// at its origin, a head derived where it is located, a walk's first hop at
// the querier — never touches a socket: it is delivered in-process through
// the node's local queue (local.go), as the simulator delivers a From ==
// To message without link cost.
//
// It corresponds to the paper's physical testbed of Section 6.1.3 ("actual
// sockets were used over a physical network"), complementing the
// discrete-event simulation used for the storage and bandwidth
// experiments. The DELP engine (internal/engine) and the per-scheme state
// machines (core.NodeState) are shared with the simulated runtime; only
// the transport differs.
//
// Unlike the paper's healthy-testbed assumption, this runtime carries a
// fault model: every link is a fault-tolerant transport (transport.go)
// with reconnection, retries, backoff and write deadlines; FaultPlan
// (faults.go) wraps the links' connections to fail, stall or tear their
// writes deterministically; and nodes can be crashed and revived with
// Node.Kill and Cluster.Restart. In-flight accounting is epoch-based per
// destination so Quiesce stays trustworthy when frames are lost or a
// member dies: every enqueued frame is settled exactly once — by the
// receiver that processes it, by the sender that gives up on it, or by
// the drain that accompanies a crash.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/analysis"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/membership"
	"provcompress/internal/ndlog"
	"provcompress/internal/store"
	"provcompress/internal/trace"
	"provcompress/internal/types"
)

// Config describes the cluster to boot.
type Config struct {
	// Prog is the DELP every node runs; it must validate.
	Prog *ndlog.Program
	// Funcs registers the user-defined functions the program calls.
	Funcs ndlog.FuncMap
	// Nodes lists the member addresses.
	Nodes []types.NodeAddr
	// Scheme selects the provenance maintenance scheme (core.SchemeExSPAN,
	// core.SchemeBasic, or core.SchemeAdvanced); empty selects Advanced.
	Scheme string
	// Transport tunes the fault-tolerant sender; zero values pick the
	// defaults documented on TransportConfig.
	Transport TransportConfig
	// Faults, when non-nil, wraps every link's connection to fail, stall
	// or tear its writes, deterministically from its seed.
	Faults *FaultPlan
	// Shards is the number of per-node event-execution workers. Arriving
	// event tuples are routed to a shard by their equivalence key (the
	// Section 5.2 analysis, per event relation), so events of the same
	// class serialize while independent classes evaluate concurrently.
	// 0 picks min(GOMAXPROCS, 8); 1 serializes each node.
	Shards int
	// Tracer, when non-nil, collects distributed spans: injections, walk
	// hops, and rule firings across every node the work touches. Nil
	// disables tracing at near-zero cost.
	Tracer *trace.Collector
	// GraveyardCap bounds each node database's deleted-tuple graveyard
	// (0 = unbounded). See Database.SetGraveyardCap for the provenance
	// monotonicity tradeoff.
	GraveyardCap int
	// DataDir, when non-empty, makes every node durable: each member keeps
	// a write-ahead log plus snapshots in DataDir/<node>/ and recovers its
	// state from them at boot and on Restart. Empty keeps the cluster
	// volatile (provenance survives Kill/Restart only in RAM).
	DataDir string
	// Durability tunes the per-node stores (fsync policy, snapshot
	// cadence); ignored when DataDir is empty.
	Durability store.Options
	// Replicas is the k of k-way provenance replication: every member
	// streams its accepted records to k rendezvous-chosen peers, which
	// maintain shadow copies of its partition so distributed queries fail
	// over during an outage instead of exhausting their retry budget.
	// 0 disables replication (the pre-membership behavior).
	Replicas int
}

// Cluster is a set of live nodes on loopback TCP.
type Cluster struct {
	prog  *ndlog.Program
	funcs ndlog.FuncMap
	keys  []int
	// arities is every program relation's argument count; Inject refuses
	// events that disagree with it.
	arities map[string]int
	// names interns what every decoded tuple is made of: the program's
	// relation names and the boot members' addresses. Built once in New
	// and read-only afterwards; every frame, WAL record and snapshot this
	// cluster decodes resolves its strings through it.
	names *types.Names
	// outputRels lists the program's output relations, sorted (Outputs).
	outputRels []string
	scheme     string
	tcfg       TransportConfig
	faults     *FaultPlan
	tracer     *trace.Collector

	// dataDir / dopts configure durability ("" = volatile cluster).
	dataDir string
	dopts   store.Options

	// plans holds the join plans compiled from the program at boot; every
	// node evaluates through them (the deploy-time rule compiler).
	plans *engine.Plans
	// shardKeys maps each event relation to its equivalence-key attribute
	// indexes, the shard routing key for arriving event tuples.
	shardKeys map[string][]int
	nshards   int
	// stopCh stops the per-node shard workers (and unblocks readers
	// waiting to enqueue) when the cluster closes.
	stopCh chan struct{}

	// graveyardCap is remembered from Config so members added at runtime
	// (Join) get the same retention bound as boot-time members.
	graveyardCap int
	// replicas is the k of k-way provenance replication (Config.Replicas).
	replicas int

	// nodes is copy-on-write: readers load the current map wholesale from
	// the atomic (no lock on any hot path), and the rare mutation — Join
	// adding a member — swaps in a fresh copy under nodesMu. Nodes are
	// never removed: a departed member stays in the map dead, exactly like
	// a killed one, so late frames addressed to it settle normally.
	nodesMu  sync.Mutex
	nodesVal atomic.Value // of map[types.NodeAddr]*Node

	// membStats aggregates the membership-subsystem counters
	// (membership.go); hot paths touch it only when the feature is active.
	memb membStats

	// In-flight accounting: inflight is the global count Quiesce watches;
	// destCount/destEpoch track per-destination counts so a crash can
	// drain exactly the frames addressed to the dead member (the epoch
	// bump invalidates their later settles).
	inflight  atomic.Int64
	acctMu    sync.Mutex
	destCount map[types.NodeAddr]int64
	destEpoch map[types.NodeAddr]uint64

	idleMu sync.Mutex
	idleCh chan struct{}

	nextQID atomic.Uint64
	nextHID atomic.Uint64
	closed  atomic.Bool

	// eventHook, when set, is called after every accepted state change
	// (Inject, InsertSlow, DeleteSlow, provenance landing on an output)
	// with the invalidation keys the change touched (invalkey.go). The
	// serving layer uses it to evict exactly the cached query results
	// that depend on those keys.
	eventHook atomic.Value // of func([]InvalKey)
}

// Node is one cluster member: a listener, the partition it owns, and the
// copies of other members' partitions it holds, all driven by its message
// loop.
type Node struct {
	c    *Cluster
	addr types.NodeAddr

	// addrMu guards the listener identity, which changes on Restart.
	addrMu  sync.Mutex
	ln      net.Listener
	tcpAddr string

	alive       atomic.Bool
	incarnation atomic.Uint64

	// self is the partition this node owns (partition.go). The pointer is
	// fixed for the node's life; a durable Restart empties it in place.
	self *partition

	// When the cluster has a data dir, durMu serializes every {WAL append
	// + apply} pair so log order equals apply order (Node.write in
	// durability.go). dstore is only swapped on Restart, under durMu, with
	// the node dead.
	durMu    sync.Mutex
	dstore   *store.NodeStore
	failures atomic.Int64 // errors survived (Node.fail)

	transMu sync.Mutex
	trans   map[types.NodeAddr]*transport
	// local is the current incarnation's delivery to itself (local.go);
	// nil while the node is dead.
	local atomic.Pointer[localQueue]

	// linkMu guards the per-peer byte attribution, the map and every
	// counter in it; counters persist across Kill/Restart (transports do
	// not).
	linkMu sync.Mutex
	links  map[types.NodeAddr]*linkBytes

	inMu    sync.Mutex
	inConns map[net.Conn]struct{}

	// seqMu guards the per-sender delivery trackers used to suppress
	// redelivered duplicates.
	seqMu   sync.Mutex
	lastSeq map[types.NodeAddr]*seqTracker

	// shardCh holds the per-shard work queues; each has a dedicated
	// worker goroutine that runs the DELP pipeline step for its events.
	shardCh []chan shardWork

	pendMu  sync.Mutex
	pending map[uint64]chan *walkFrame

	// Membership state (membership.go): the node's copy of the gossiped
	// cluster view, its own announcement epoch, the cached replica target
	// set, and the partition copies it holds for other members (replica
	// shadows while the owner is alive, handed-off partitions after the
	// owner left).
	viewMu         sync.Mutex
	view           *membership.View
	downLeft       atomic.Int64 // members not Alive() in view; gates hot-path view checks
	memberEpoch    atomic.Uint64
	replTargets    atomic.Value // of []types.NodeAddr
	replVersion    uint64       // view version replTargets was computed at (under viewMu)
	replRecords    atomic.Int64 // records this owner shipped to its replicas, one per target
	partsMu        sync.Mutex
	parts          map[types.NodeAddr]*partition
	ackMu          sync.Mutex
	handoffWaits   map[uint64]chan struct{}
	handoffsActive atomic.Int64 // acked handoffs in flight; Ready gates on zero

	stats transportStats

	wg sync.WaitGroup
}

// seqTracker is one sender's delivery history: the incarnation of its
// newest stream, the newest seq delivered from it, and which of the
// dedupWindow seqs up to that one were delivered — a fixed 1 KiB bitmap
// ring, bit seq%dedupWindow for seq. Advancing maxSeq clears the bits it
// passes, so each bit only ever speaks for the one seq of its slot inside
// the window; anything older is refused before the ring is read.
type seqTracker struct {
	inc    uint64
	maxSeq uint64
	seen   [dedupWindow / 64]uint64
}

// seenOrMark reports whether seq was already delivered on this stream or
// is too old to tell, and otherwise marks it delivered.
func (st *seqTracker) seenOrMark(seq uint64) bool {
	if seq+dedupWindow <= st.maxSeq {
		return true // too old to distinguish from a duplicate
	}
	if seq > st.maxSeq {
		if seq-st.maxSeq >= dedupWindow {
			st.seen = [dedupWindow / 64]uint64{}
		} else {
			// Counted, not compared against seq: s <= seq never fails
			// when seq is the largest uint64.
			for s, k := st.maxSeq+1, seq-st.maxSeq; k > 0; s, k = s+1, k-1 {
				st.seen[s%dedupWindow/64] &^= 1 << (s % 64)
			}
		}
		st.maxSeq = seq
	}
	word, bit := &st.seen[seq%dedupWindow/64], uint64(1)<<(seq%64)
	if *word&bit != 0 {
		return true
	}
	*word |= bit
	return false
}

// count returns how many seqs of the window were delivered.
func (st *seqTracker) count() int {
	n := 0
	for _, w := range st.seen {
		n += bits.OnesCount64(w)
	}
	return n
}

// New boots the cluster: one listener per node, the scheme resolved and the
// program analyzed once, every node starting with an empty database.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Prog.ValidateDELP(); err != nil {
		return nil, err
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	scheme, err := core.ResolveScheme(cmp.Or(cfg.Scheme, core.SchemeAdvanced), cfg.Prog)
	if err != nil {
		return nil, err
	}
	arities, err := cfg.Prog.Arities()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	var outputRels []string
	for rel := range cfg.Prog.OutputRelations() {
		outputRels = append(outputRels, rel)
	}
	sort.Strings(outputRels)
	graph := analysis.BuildGraph(cfg.Prog)
	shardKeys := make(map[string][]int)
	for _, r := range cfg.Prog.Rules {
		if _, ok := shardKeys[r.Event.Rel]; !ok {
			shardKeys[r.Event.Rel] = graph.EquivalenceKeysFor(r.Event.Rel)
		}
	}
	nshards := cfg.Shards
	if nshards <= 0 {
		nshards = runtime.GOMAXPROCS(0)
		if nshards > 8 {
			nshards = 8
		}
	}
	vocab := make([]string, 0, len(arities)+len(cfg.Nodes))
	for rel := range arities {
		vocab = append(vocab, rel)
	}
	for _, addr := range cfg.Nodes {
		vocab = append(vocab, string(addr))
	}
	c := &Cluster{
		prog:         cfg.Prog,
		funcs:        cfg.Funcs,
		keys:         graph.EquivalenceKeys(),
		arities:      arities,
		names:        types.NewNames(vocab...),
		outputRels:   outputRels,
		scheme:       scheme,
		tcfg:         cfg.Transport.withDefaults(),
		faults:       cfg.Faults,
		tracer:       cfg.Tracer,
		dataDir:      cfg.DataDir,
		dopts:        cfg.Durability,
		plans:        engine.CompileProgram(cfg.Prog),
		shardKeys:    shardKeys,
		nshards:      nshards,
		graveyardCap: cfg.GraveyardCap,
		replicas:     cfg.Replicas,
		stopCh:       make(chan struct{}),
		destCount:    make(map[types.NodeAddr]int64, len(cfg.Nodes)),
		destEpoch:    make(map[types.NodeAddr]uint64, len(cfg.Nodes)),
	}
	nodes := make(map[types.NodeAddr]*Node, len(cfg.Nodes))
	c.nodesVal.Store(nodes)
	// Every boot member starts with the same static view: everyone Up at
	// epoch 1. A static view needs no gossip — membership frames only flow
	// when something changes — so a healthy fixed-membership run stays
	// byte-identical to the pre-membership transport.
	bootView := membership.NewView()
	for _, addr := range cfg.Nodes {
		bootView.Set(membership.Member{Addr: addr, Epoch: 1, State: membership.Up})
	}
	members := make([]*Node, 0, len(cfg.Nodes))
	for _, addr := range cfg.Nodes {
		if _, dup := nodes[addr]; dup {
			c.Close()
			return nil, fmt.Errorf("cluster: duplicate node %s", addr)
		}
		n, err := c.newNode(addr, bootView.Clone())
		if err != nil {
			c.Close()
			return nil, err
		}
		nodes[addr] = n
		members = append(members, n)
	}
	if c.dataDir != "" {
		// Each member's state is its own (DESIGN.md §11), so the members
		// recover side by side; each replays its own log in order.
		if err := eachParallel(members, c.openStore); err != nil {
			c.Close()
			return nil, err
		}
	}
	for _, n := range members {
		c.startNode(n)
	}
	return c, nil
}

// newNode builds one member — listener, database, scheme state — without
// recovering its durable store or starting its goroutines. The caller
// recovers the store when the cluster is durable (openStore), registers
// the member in the nodes map and calls startNode.
func (c *Cluster) newNode(addr types.NodeAddr, view *membership.View) (*Node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen for %s: %w", addr, err)
	}
	self, err := c.newPartition(addr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &Node{
		c:            c,
		addr:         addr,
		ln:           ln,
		tcpAddr:      ln.Addr().String(),
		self:         self,
		trans:        make(map[types.NodeAddr]*transport),
		links:        make(map[types.NodeAddr]*linkBytes),
		inConns:      make(map[net.Conn]struct{}),
		lastSeq:      make(map[types.NodeAddr]*seqTracker),
		pending:      make(map[uint64]chan *walkFrame),
		view:         view,
		parts:        make(map[types.NodeAddr]*partition),
		handoffWaits: make(map[uint64]chan struct{}),
	}
	if row, ok := view.Get(addr); ok {
		n.memberEpoch.Store(row.Epoch)
	}
	n.refreshViewLocked(false)
	n.alive.Store(true)
	return n, nil
}

// startNode launches a member's shard workers, local queue and accept
// loop.
func (c *Cluster) startNode(n *Node) {
	n.shardCh = make([]chan shardWork, c.nshards)
	for i := range n.shardCh {
		ch := make(chan shardWork, shardQueueDepth)
		n.shardCh[i] = ch
		n.wg.Add(1)
		go n.shardWorker(ch)
	}
	n.startLocal()
	n.wg.Add(1)
	go n.acceptLoop(n.ln)
}

// nodeMap returns the current copy-on-write member map. The map must not
// be mutated; Join swaps in a new one.
func (c *Cluster) nodeMap() map[types.NodeAddr]*Node {
	return c.nodesVal.Load().(map[types.NodeAddr]*Node)
}

// node returns a member by address, or nil.
func (c *Cluster) node(addr types.NodeAddr) *Node { return c.nodeMap()[addr] }

// addNode registers a runtime-joined member in a fresh copy of the map.
func (c *Cluster) addNode(n *Node) error {
	c.nodesMu.Lock()
	defer c.nodesMu.Unlock()
	old := c.nodeMap()
	if _, dup := old[n.addr]; dup {
		return fmt.Errorf("cluster: member %s already exists", n.addr)
	}
	next := make(map[types.NodeAddr]*Node, len(old)+1)
	for a, m := range old {
		next[a] = m
	}
	next[n.addr] = n
	c.nodesVal.Store(next)
	return nil
}

// shardQueueDepth bounds each shard's pending-event queue; a full queue
// backpressures the TCP reader that is enqueueing (which in turn
// backpressures the sender's transport), bounding per-node memory.
const shardQueueDepth = 256

// shardOf routes an event tuple to a shard: events with equal values at
// their relation's equivalence-key attributes — the attributes that
// determine the shape of the provenance their execution generates
// (Theorem 1) — always land on the same shard, so per-class provenance
// chains observe a serial order while independent classes run
// concurrently. Relations without rules (outputs) hash over the whole
// tuple for spread.
func (c *Cluster) shardOf(t types.Tuple) int {
	if c.nshards == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(t.Rel)) //nolint:errcheck // fnv never fails
	var buf [64]byte
	if keys, ok := c.shardKeys[t.Rel]; ok {
		for _, i := range keys {
			if i < len(t.Args) {
				h.Write(t.Args[i].AppendEncode(buf[:0])) //nolint:errcheck
			}
		}
	} else {
		for _, a := range t.Args {
			h.Write(a.AppendEncode(buf[:0])) //nolint:errcheck
		}
	}
	return int(h.Sum32() % uint32(c.nshards))
}

// Shards returns the per-node shard count in use.
func (c *Cluster) Shards() int { return c.nshards }

// Node returns a member by address, or nil.
func (c *Cluster) Node(addr types.NodeAddr) *Node { return c.node(addr) }

// SetEventHook installs fn to run after every accepted change a cached
// answer can depend on — output landing, slow insert, slow delete,
// graveyard eviction, and a second derivation giving a stored row another
// predecessor — with the invalidation keys the change touched. Pass nil to
// clear. The hook must be cheap and non-blocking; it runs on the goroutine
// that applied the change — for output landings that is a shard worker, so
// the hook must also be safe for concurrent calls.
func (c *Cluster) SetEventHook(fn func(keys []InvalKey)) {
	if fn == nil {
		fn = func([]InvalKey) {}
	}
	c.eventHook.Store(fn)
}

// fireEventHook invokes the installed hook, if any, with the touched
// keys.
func (c *Cluster) fireEventHook(keys ...InvalKey) {
	if fn, ok := c.eventHook.Load().(func([]InvalKey)); ok {
		fn(keys)
	}
}

// Keys returns the equivalence-key indexes in use.
func (c *Cluster) Keys() []int { return append([]int(nil), c.keys...) }

// listenAddr returns the node's current TCP address (it changes on
// Restart, so dialers read it per attempt).
func (n *Node) listenAddr() string {
	n.addrMu.Lock()
	defer n.addrMu.Unlock()
	return n.tcpAddr
}

// acctEnqueue counts one frame bound for `to` and returns the destination
// epoch the frame must carry for its eventual settle.
func (c *Cluster) acctEnqueue(to types.NodeAddr) uint64 {
	c.acctMu.Lock()
	defer c.acctMu.Unlock()
	c.destCount[to]++
	c.inflight.Add(1)
	return c.destEpoch[to]
}

// acctSettle retires one frame bound for `to` that was counted under
// epoch. A frame from a drained epoch (the destination crashed since) was
// already retired by acctDrain, so it is ignored — this is what keeps a
// lost-and-retried frame from being settled twice.
func (c *Cluster) acctSettle(to types.NodeAddr, epoch uint64) {
	c.acctMu.Lock()
	settled := c.destEpoch[to] == epoch && c.destCount[to] > 0
	if settled {
		c.destCount[to]--
	}
	c.acctMu.Unlock()
	if settled && c.inflight.Add(-1) == 0 {
		c.kickIdle()
	}
}

// acctDrain retires every frame still counted against `to` (its listener
// and sockets are gone, so none of them will be processed) and bumps the
// epoch so stragglers do not double-settle.
func (c *Cluster) acctDrain(to types.NodeAddr) {
	c.acctMu.Lock()
	n := c.destCount[to]
	c.destCount[to] = 0
	c.destEpoch[to]++
	c.acctMu.Unlock()
	if n > 0 && c.inflight.Add(-n) == 0 {
		c.kickIdle()
	}
}

// idleKick returns a channel closed the next time in-flight reaches zero.
// Callers must obtain the channel before re-reading the counter to avoid
// a missed wakeup.
func (c *Cluster) idleKick() <-chan struct{} {
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	if c.idleCh == nil {
		c.idleCh = make(chan struct{})
	}
	return c.idleCh
}

func (c *Cluster) kickIdle() {
	c.idleMu.Lock()
	if c.idleCh != nil {
		close(c.idleCh)
		c.idleCh = nil
	}
	c.idleMu.Unlock()
}

// LoadBase inserts base tuples directly into the member databases (the
// initial configuration step). It loads all of them or, when a tuple's
// location is no member, none. The members load side by side, each its
// own tuples in their order in the list, which is the order it logs them:
// maxWriteBatch tuples to a write, and so to a record.
func (c *Cluster) LoadBase(tuples []types.Tuple) error {
	groups := make(map[*Node][]types.Tuple)
	for _, t := range tuples {
		n := c.node(t.Loc())
		if n == nil {
			return fmt.Errorf("cluster: base tuple %s at unknown node", t)
		}
		groups[n] = append(groups[n], t)
	}
	members := make([]*Node, 0, len(groups))
	for n := range groups {
		members = append(members, n)
	}
	return eachParallel(members, func(n *Node) error {
		for ts := groups[n]; len(ts) > 0; {
			k := min(len(ts), maxWriteBatch)
			n.insertSlow(ts[:k]...)
			ts = ts[k:]
		}
		return nil
	})
}

// eachParallel calls fn on every item on at most GOMAXPROCS goroutines and
// returns the first error; once one fails, no further item starts.
func eachParallel[T any](items []T, fn func(T) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		once   sync.Once
		first  error
		wg     sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if err := fn(items[i]); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// ErrQueueFull is the refusal of an event whose origin's queue stayed
// full for the whole admission wait: the node is saturated, and the event
// was dropped and counted in TransportStats.QueueDrops. Inject returns an
// error wrapping it; the caller may offer the event again later.
var ErrQueueFull = errors.New("cluster: queue full")

// Inject hands a fresh input event to its origin node's local queue
// (local.go) — over TCP only when the origin has Left and another member
// acts for it. The in-flight accounting happens inside the send path, so a
// failed enqueue leaks nothing and Quiesce stays balanced. A saturated
// origin refuses the event with an error wrapping ErrQueueFull.
func (c *Cluster) Inject(ev types.Tuple) error {
	_, err := c.InjectTraced(ev)
	return err
}

// InjectTraced is Inject returning the trace ID of the derivation's span
// tree (zero when the cluster has no tracer). The injection span is the
// tree's root; every downstream derivation step on every node parents
// under it through the frame trace headers.
func (c *Cluster) InjectTraced(ev types.Tuple) (trace.TraceID, error) {
	// Events arrive from outside the process (POST /v1/events): one whose
	// shape the program cannot evaluate is refused here, before any shard
	// worker indexes into its arguments, and so is one no rule consumes,
	// which would only be stored as an output nothing derived.
	if want, ok := c.arities[ev.Rel]; ok && ev.Arity() != want {
		return 0, fmt.Errorf("cluster: inject %s: relation %s takes %d arguments, got %d", ev, ev.Rel, want, ev.Arity())
	}
	if ev.Arity() == 0 {
		return 0, fmt.Errorf("cluster: inject %s: no location argument", ev.Rel)
	}
	if len(c.prog.RulesForEvent(ev.Rel)) == 0 {
		return 0, fmt.Errorf("cluster: inject %s: no rule takes %s as its event", ev, ev.Rel)
	}
	origin := c.node(ev.Loc())
	if origin == nil {
		return 0, fmt.Errorf("cluster: inject %s at unknown node", ev)
	}
	// The root span's name is built only when there is a collector to take
	// it, as startSpan does for the spans under it.
	var sp *trace.ActiveSpan
	if c.tracer != nil {
		sp = c.tracer.StartSpan(trace.SpanContext{}, string(ev.Loc()), "inject", "inject "+ev.Rel)
	}
	sp.SetAttr("scheme", c.scheme)
	f := tupleFrame{Tuple: ev, Fresh: true, Trace: sp.Context()}
	err := origin.sendTuple(&f, true)
	sp.End()
	if err != nil {
		return 0, fmt.Errorf("cluster: inject %s: %w", ev, err)
	}
	return sp.Context().Trace, nil
}

// Tracer returns the cluster's span collector (nil when tracing is off).
func (c *Cluster) Tracer() *trace.Collector { return c.tracer }

// InsertSlow inserts a slow-changing tuple at runtime and, under the
// schemes that keep htequi, broadcasts sig (Section 5.5).
func (c *Cluster) InsertSlow(t types.Tuple) error {
	n := c.node(t.Loc())
	if n == nil {
		return fmt.Errorf("cluster: slow insert %s at unknown node", t)
	}
	if n.insertSlow(t) == 0 {
		return nil
	}
	// The tuple is in the database from here on, whatever the broadcast
	// below does: a cached answer that carried its VID as unresolved is
	// stale now.
	c.fireEventHook(VIDInvalKey(types.HashTuple(t)))
	if !n.self.sigs {
		return nil
	}
	// Every member is offered the sig, even past one whose queue refuses
	// it; the first refusal is reported.
	frame := encodeSig()
	var first error
	for addr := range c.nodeMap() {
		// Sig broadcasts are provenance maintenance (Section 5.5).
		if err := n.send(addr, frame, classProv, 0); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DeleteSlow removes a slow-changing tuple at runtime. Deletion does not
// invalidate stored provenance (Section 5.5: provenance is monotone), so
// no sig broadcast is needed and the tuple's content stays resolvable via
// the database graveyard for later provenance queries. The secondary join
// indexes are kept consistent by the delete itself.
func (c *Cluster) DeleteSlow(t types.Tuple) error {
	n := c.node(t.Loc())
	if n == nil {
		return fmt.Errorf("cluster: slow delete %s at unknown node", t)
	}
	if ok, evicted := n.deleteSlow(t); ok {
		// The deleted tuple's VID key evicts cached trees that joined
		// against it; graveyard-cap evictions additionally invalidate any
		// tree that resolved a now-unresolvable VID.
		keys := append(vidKeysOf(evicted), VIDInvalKey(types.HashTuple(t)))
		c.fireEventHook(keys...)
	}
	return nil
}

// quiesceSettle is how long the in-flight counter must stay at zero
// before Quiesce declares the cluster settled (the old 3×2ms poll
// window, kept as a plain re-check after the idle notification).
const quiesceSettle = 6 * time.Millisecond

// Quiesce blocks until no messages are in flight (stable for a settle
// window) or the deadline passes. It waits on the idle notification the
// accounting raises when the counter hits zero instead of busy-polling.
func (c *Cluster) Quiesce(deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		kick := c.idleKick()
		if c.inflight.Load() == 0 {
			remain := time.Until(end)
			if remain <= 0 {
				break
			}
			wait := quiesceSettle
			if wait > remain {
				wait = remain
			}
			time.Sleep(wait)
			if c.inflight.Load() == 0 {
				return nil
			}
			continue
		}
		remain := time.Until(end)
		if remain <= 0 {
			break
		}
		timer := time.NewTimer(remain)
		select {
		case <-kick:
			timer.Stop()
		case <-timer.C:
		}
	}
	c.acctMu.Lock()
	stuck := make(map[types.NodeAddr]int64)
	for to, cnt := range c.destCount {
		if cnt > 0 {
			stuck[to] = cnt
		}
	}
	c.acctMu.Unlock()
	return fmt.Errorf("cluster: quiesce timeout with %d messages in flight (per dest: %v)%s", c.inflight.Load(), stuck, c.stuckLinks(stuck))
}

// stuckLinks describes what a stuck Quiesce waits for: for each
// destination still counted in flight, its local queue, every live
// sender's link to it and the destination's receive tracker for that
// sender.
func (c *Cluster) stuckLinks(stuck map[types.NodeAddr]int64) string {
	nodes := c.nodeMap()
	var b strings.Builder
	for to := range stuck {
		dst := nodes[to]
		if q := dst.local.Load(); q != nil {
			fmt.Fprintf(&b, "; %s local queue: %d waiting", to, q.waiting())
		}
		for from, n := range nodes {
			n.transMu.Lock()
			t := n.trans[to]
			n.transMu.Unlock()
			if t == nil || !n.alive.Load() {
				continue
			}
			t.mu.Lock()
			waiting, open := len(t.sched.waiting), 0
			if t.sched.open {
				open = len(t.sched.batch)
			}
			t.mu.Unlock()
			fmt.Fprintf(&b, "; %s->%s (inc %d): %d waiting, open batch %d, last seq written %d, mid-write %t",
				from, to, n.incarnation.Load(), waiting, open, t.written.Load(), t.writing.Load())
			dst.seqMu.Lock()
			if st := dst.lastSeq[from]; st != nil {
				fmt.Fprintf(&b, "; %s tracks %s at inc %d max seq %d, %d seen", to, from, st.inc, st.maxSeq, st.count())
			} else {
				fmt.Fprintf(&b, "; %s tracks nothing from %s", to, from)
			}
			dst.seqMu.Unlock()
		}
	}
	return b.String()
}

// Outputs returns the output tuples that arrived at one node — its rows of
// the program's output relations, sorted by relation, each in arrival order.
func (c *Cluster) Outputs(addr types.NodeAddr) []types.Tuple {
	n := c.node(addr)
	if n == nil {
		return nil
	}
	return n.self.outputs(c.outputRels)
}

// AllOutputs returns every output across the cluster.
func (c *Cluster) AllOutputs() []types.Tuple {
	var out []types.Tuple
	for _, n := range c.nodeMap() {
		out = append(out, c.Outputs(n.addr)...)
	}
	return out
}

// StorageBytes returns the provenance storage at one node.
func (c *Cluster) StorageBytes(addr types.NodeAddr) int64 {
	n := c.node(addr)
	if n == nil {
		return 0
	}
	n.self.mu.Lock()
	defer n.self.mu.Unlock()
	return n.self.state.StorageBytes()
}

// TotalStorageBytes sums provenance storage across members.
func (c *Cluster) TotalStorageBytes() int64 {
	var total int64
	for addr := range c.nodeMap() {
		total += c.StorageBytes(addr)
	}
	return total
}

// AdvancedStats sums the Advanced scheme's sig-reset and deferred-landing
// counters across members. Zero for the other schemes, which have neither
// path.
func (c *Cluster) AdvancedStats() core.AdvancedStats {
	var total core.AdvancedStats
	for _, n := range c.nodeMap() {
		n.self.mu.Lock()
		if adv, ok := n.self.state.(*core.AdvancedState); ok {
			total.Add(adv.Stats())
		}
		n.self.mu.Unlock()
	}
	return total
}

// TransportStats sums the transport counters across members.
func (c *Cluster) TransportStats() TransportStats {
	var s TransportStats
	for _, n := range c.nodeMap() {
		s.accumulate(&n.stats)
		n.addLinkBytes(&s)
	}
	return s
}

// TransportStats snapshots this node's transport counters.
func (n *Node) TransportStats() TransportStats {
	var s TransportStats
	s.accumulate(&n.stats)
	n.addLinkBytes(&s)
	return s
}

// linkBytesTo returns (creating on first use) the persistent byte
// counters for the directed link to a peer.
func (n *Node) linkBytesTo(to types.NodeAddr) *linkBytes {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if n.links[to] == nil {
		n.links[to] = &linkBytes{}
	}
	return n.links[to]
}

// addLinkBytes folds the node's per-link byte counters into a snapshot;
// the byte total is their sum, so it and its classes always agree.
func (n *Node) addLinkBytes(s *TransportStats) {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	for _, lb := range n.links {
		s.BytesTotal += lb.total
		s.BytesBase += lb.class[classBase]
		s.BytesProv += lb.class[classProv]
		s.BytesQuery += lb.class[classQuery]
		s.BytesBatch += lb.class[classBatch]
	}
}

// LinkByteStats is the per-directed-link byte attribution, the real
// runtime's analogue of the netsim per-link LinkStats.
type LinkByteStats struct {
	From, To types.NodeAddr
	Total    int64
	Base     int64
	Prov     int64
	Query    int64
	Batch    int64
}

// LinkByteStats snapshots every directed link's byte attribution,
// sorted by (From, To) so scrapes and logs are stable.
func (c *Cluster) LinkByteStats() []LinkByteStats {
	var out []LinkByteStats
	for _, n := range c.nodeMap() {
		n.linkMu.Lock()
		for to, lb := range n.links {
			out = append(out, LinkByteStats{
				From:  n.addr,
				To:    to,
				Total: lb.total,
				Base:  lb.class[classBase],
				Prov:  lb.class[classProv],
				Query: lb.class[classQuery],
				Batch: lb.class[classBatch],
			})
		}
		n.linkMu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// GraveyardSize sums the deleted-tuple graveyard sizes across members —
// the gauge the serving layer exports.
func (c *Cluster) GraveyardSize() int {
	total := 0
	for _, n := range c.nodeMap() {
		total += n.self.db.GraveyardSize()
	}
	return total
}

// DatabaseTuples sums the live tuples in the members' own databases —
// slow tuples, input events, outputs and, under ExSPAN, every intermediate
// event (partition.step) — the gauge the serving layer exports. Replica
// shadows hold copies of these and are not counted.
func (c *Cluster) DatabaseTuples() int {
	total := 0
	for _, n := range c.nodeMap() {
		total += n.self.db.Len()
	}
	return total
}

// Alive reports whether the node is up (not killed).
func (n *Node) Alive() bool { return n.alive.Load() }

// Kill simulates a node crash: the listener and every socket close, the
// outbound queues drain, and every frame still counted against this node
// is retired so Quiesce cannot wedge on messages a dead member will never
// process. Provenance state and the database survive (the paper treats
// provenance tables as durable storage); in-flight messages do not,
// beyond what peer retry budgets recover after a Restart.
func (n *Node) Kill() {
	if !n.alive.CompareAndSwap(true, false) {
		return
	}
	n.addrMu.Lock()
	ln := n.ln
	n.tcpAddr = "" // its port may go to another listener: peers must not dial it
	n.addrMu.Unlock()
	ln.Close()
	n.inMu.Lock()
	for conn := range n.inConns {
		conn.Close()
	}
	n.inMu.Unlock()
	n.stopTransports()
	n.c.acctDrain(n.addr)
}

// stopTransports halts every outbound link and the local queue and
// forgets them; frames still queued are drained and settled by the
// writers and the local drainer.
func (n *Node) stopTransports() {
	if q := n.local.Swap(nil); q != nil {
		q.halt()
	}
	n.transMu.Lock()
	for _, t := range n.trans {
		t.halt()
	}
	n.trans = make(map[types.NodeAddr]*transport)
	n.transMu.Unlock()
}

// Restart revives a killed node on a fresh listener (and port). Peers
// re-dial lazily through their transports; the bumped incarnation resets
// the receivers' duplicate filters for this node's fresh send streams.
func (c *Cluster) Restart(addr types.NodeAddr) error {
	n := c.node(addr)
	if n == nil {
		return fmt.Errorf("cluster: restart unknown node %s", addr)
	}
	if c.closed.Load() {
		return fmt.Errorf("cluster: restart %s on closed cluster", addr)
	}
	if n.alive.Load() {
		return fmt.Errorf("cluster: restart live node %s", addr)
	}
	if c.dataDir != "" {
		// A durable restart is a real recovery: the crashed in-memory state
		// is discarded and rebuilt from the snapshot + WAL tail before the
		// node accepts traffic again.
		if err := c.recoverForRestart(n); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster: relisten for %s: %w", addr, err)
	}
	n.addrMu.Lock()
	n.ln = ln
	n.tcpAddr = ln.Addr().String()
	n.addrMu.Unlock()
	n.incarnation.Add(1)
	n.startLocal()
	n.alive.Store(true)
	n.wg.Add(1)
	go n.acceptLoop(ln)
	n.announceRestart()
	return nil
}

// Close shuts down listeners, connections, shard workers, and writer
// goroutines.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for _, n := range c.nodeMap() {
		n.Kill()
	}
	// Stop the shard workers after the sockets are gone: this also
	// unblocks any reader still trying to enqueue into a full shard, and
	// whatever stays queued was already retired by the kill drains.
	close(c.stopCh)
	for _, n := range c.nodeMap() {
		n.wg.Wait()
	}
	// With every worker stopped, flush and close the durable stores.
	for _, n := range c.nodeMap() {
		n.durMu.Lock()
		n.closeStoreLocked()
		n.durMu.Unlock()
	}
}
