// Elastic membership for the real-socket cluster: every node keeps a
// gossiped CRDT view of the member set (internal/membership), partitions
// are placed by rendezvous hashing, and with Config.Replicas > 0 each
// member streams its accepted records to k peers that maintain shadow
// copies of its partition.
//
// The moving parts, and how they compose with the existing fault model:
//
//   - View gossip (frameView) only flows when the view changes. A cluster
//     booted with a fixed member set starts from a static converged view,
//     so a healthy fixed-membership run sends zero membership frames and
//     stays byte-identical to the pre-membership transport.
//
//   - Suspicion is evidence-based, not probe-based: a transport that
//     abandons a frame after exhausting its retry budget without ever
//     holding a connection (every dial failed) marks the peer Down in the
//     sender's view and gossips. There are no heartbeat probes, so the
//     retry window that lets a killed-and-restarted node catch its
//     traffic is untouched. A member seeing itself Down refutes by
//     re-announcing Up at a higher epoch.
//
//   - Replication (frameRepl) ships the same byte records the durability
//     layer logs (durability.go), so a replica replays the owner's apply
//     stream through the same code path recovery uses. Shadows never ship
//     derived heads — the owner already did.
//
//   - Handoff (frameHandoff) streams partition.snapshot — the exact codec
//     checkpoints use — and installs it by merging, not restoring, so a
//     replicated record that raced ahead of the snapshot is kept and one
//     the snapshot already contains is a no-op, in either arrival order.
//
//   - Query failover: when a partition's owner is unreachable, walks are
//     served from (or routed to) a rendezvous replica; a walk that cannot
//     reach anyone holding the data returns Partial and the querier fails
//     fast instead of burning its retry budget on a known outage.
package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"provcompress/internal/membership"
	"provcompress/internal/metrics"
	"provcompress/internal/types"
)

// membStats are the cluster-wide membership counters. Everything here is
// off the hot path of a fixed-membership run: the counters only move when
// views change, replication is on, or a failover happens.
type membStats struct {
	viewFrames   atomic.Int64 // gossip frames sent
	suspicions   atomic.Int64 // members marked Down from transport evidence
	refutations  atomic.Int64 // self re-announcements beating a false Down
	handoffs     atomic.Int64 // partition snapshots streamed
	handoffBytes atomic.Int64 // snapshot payload bytes moved by handoffs
	repairs      atomic.Int64 // read-repair merges applied into an owner
	failovers    atomic.Int64 // queries answered through a replica
	partialWalks atomic.Int64 // walks returned Partial (unreachable member)
	rebalanceNs  atomic.Int64 // wall time spent waiting on handoff acks
}

// MembershipStats is a point-in-time snapshot of the membership
// subsystem, summed across members.
type MembershipStats struct {
	Replicas     int // configured k
	Members      int // rows in the (merged) view, any state
	Alive        int // members the view believes serve traffic
	ViewVersion  uint64
	ViewFrames   int64
	Suspicions   int64
	Refutations  int64
	ReplRecords  int64
	Handoffs     int64
	HandoffBytes int64
	Repairs      int64
	Failovers    int64
	PartialWalks int64
	// RebalanceSeconds is the cumulative wall time Leave/bootstrap flows
	// spent waiting for handoff acknowledgements.
	RebalanceSeconds float64
}

// Counters exports the snapshot as an ordered metrics counter set.
func (s MembershipStats) Counters() *metrics.Counters {
	c := metrics.NewCounters()
	c.Add("members", int64(s.Members))
	c.Add("alive", int64(s.Alive))
	c.Add("view-version", int64(s.ViewVersion))
	c.Add("view-frames", s.ViewFrames)
	c.Add("suspicions", s.Suspicions)
	c.Add("refutations", s.Refutations)
	c.Add("repl-records", s.ReplRecords)
	c.Add("handoffs", s.Handoffs)
	c.Add("handoff-bytes", s.HandoffBytes)
	c.Add("repairs", s.Repairs)
	c.Add("failovers", s.Failovers)
	c.Add("partial-walks", s.PartialWalks)
	return c
}

// MembershipStats snapshots the cluster's membership counters plus the
// first live member's view summary.
func (c *Cluster) MembershipStats() MembershipStats {
	s := MembershipStats{
		Replicas:         c.replicas,
		ViewFrames:       c.memb.viewFrames.Load(),
		Suspicions:       c.memb.suspicions.Load(),
		Refutations:      c.memb.refutations.Load(),
		Handoffs:         c.memb.handoffs.Load(),
		HandoffBytes:     c.memb.handoffBytes.Load(),
		Repairs:          c.memb.repairs.Load(),
		Failovers:        c.memb.failovers.Load(),
		PartialWalks:     c.memb.partialWalks.Load(),
		RebalanceSeconds: time.Duration(c.memb.rebalanceNs.Load()).Seconds(),
	}
	for _, n := range c.nodeMap() {
		s.ReplRecords += n.replRecords.Load()
	}
	if n := c.firstAlive(); n != nil {
		n.viewMu.Lock()
		s.Members = n.view.Len()
		s.Alive = len(n.view.AliveAddrs())
		s.ViewVersion = n.view.Version()
		n.viewMu.Unlock()
	}
	return s
}

// Replicas returns the configured replication factor.
func (c *Cluster) Replicas() int { return c.replicas }

// firstAlive returns the lowest-addressed live member, or nil.
func (c *Cluster) firstAlive() *Node {
	var best *Node
	for _, n := range c.nodeMap() {
		if n.Alive() && (best == nil || n.addr < best.addr) {
			best = n
		}
	}
	return best
}

// Members returns the membership rows as the cluster currently believes
// them: the union (CRDT merge) of every live member's view, sorted by
// address. After a Quiesce the per-node views agree and this is exactly
// each node's local view.
func (c *Cluster) Members() []membership.Member {
	merged := membership.NewView()
	for _, n := range c.nodeMap() {
		if !n.Alive() {
			continue
		}
		n.viewMu.Lock()
		v := n.view.Clone()
		n.viewMu.Unlock()
		merged.Merge(v)
	}
	return merged.Members()
}

// WaitMemberState blocks until every live member's view records addr in
// exactly state st, or the timeout passes.
func (c *Cluster) WaitMemberState(addr types.NodeAddr, st membership.State, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		agreed := true
		for _, n := range c.nodeMap() {
			if !n.Alive() || n.addr == addr {
				continue
			}
			n.viewMu.Lock()
			row, ok := n.view.Get(addr)
			n.viewMu.Unlock()
			if !ok || row.State != st {
				agreed = false
				break
			}
		}
		if agreed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: view did not converge on %s=%s", addr, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// OwnerOf returns the member that serves L's partition when L itself is
// gone: the best rendezvous candidate among the non-Left members other
// than L. Every converged member computes the same answer, which is the
// exactly-one-acting-primary property the chaos suite asserts.
func (c *Cluster) OwnerOf(L types.NodeAddr) types.NodeAddr {
	n := c.firstAlive()
	if n == nil {
		return ""
	}
	servers := n.serversFor(L)
	if len(servers) == 0 {
		return ""
	}
	return servers[0]
}

// Ready reports whether no partition handoff is in progress anywhere:
// every streamed snapshot has been acknowledged (or written off). The
// serving layer's /readyz gates on it.
func (c *Cluster) Ready() bool {
	for _, n := range c.nodeMap() {
		if n.handoffsActive.Load() != 0 {
			return false
		}
	}
	return true
}

// waitReady polls Ready until it holds or the deadline passes.
func (c *Cluster) waitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !c.Ready() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// --- View plumbing on the node ---

// viewAlive reports whether this node's view believes addr serves
// traffic. The downLeft gate keeps the check a single atomic load on the
// (overwhelmingly common) fully-healthy view.
func (n *Node) viewAlive(addr types.NodeAddr) bool {
	if n.downLeft.Load() == 0 {
		return true
	}
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	return n.view.Alive(addr)
}

// refreshViewLocked recomputes everything derived from the view: the
// downLeft gate and, with replication on, the cached replica target set.
// It returns the targets that need a bootstrap snapshot — peers that just
// became replica targets (or came back from Down and need their shadow
// refreshed). Callers hold viewMu and must send the bootstraps after
// releasing it (the snapshot takes the partition lock). newNode passes
// bootstrap=false: at boot everyone is empty, so the record stream alone
// builds a complete shadow and no frames flow.
func (n *Node) refreshViewLocked(bootstrap bool) []types.NodeAddr {
	alive := n.view.AliveAddrs()
	n.downLeft.Store(int64(n.view.Len() - len(alive)))
	if n.c.replicas <= 0 {
		return nil
	}
	targets := membership.Replicas(n.addr, n.c.replicas, alive)
	old, _ := n.replTargets.Load().([]types.NodeAddr)
	n.replTargets.Store(targets)
	n.replVersion = n.view.Version()
	if !bootstrap {
		return nil
	}
	var boots []types.NodeAddr
	for _, t := range targets {
		known := false
		for _, o := range old {
			if o == t {
				known = true
				break
			}
		}
		if !known {
			boots = append(boots, t)
		}
	}
	return boots
}

// gossipTargetsLocked picks the fan-out for one gossip round: peers at
// ring distances 1, 2, 4, 8, … over the sorted alive member list (at most
// 8 of them), so a change reaches N members in O(log N) rounds without
// any member addressing the whole cluster. Callers hold viewMu.
func (n *Node) gossipTargetsLocked() []types.NodeAddr {
	alive := n.view.AliveAddrs()
	self := -1
	for i, a := range alive {
		if a == n.addr {
			self = i
			break
		}
	}
	if self < 0 {
		// Not alive in our own view (e.g. announcing Left): fan out from
		// position 0 so the announcement still spreads.
		self = 0
	}
	var out []types.NodeAddr
	seen := make(map[types.NodeAddr]bool, 8)
	for d := 1; d < len(alive) && len(out) < 8; d *= 2 {
		t := alive[(self+d)%len(alive)]
		if t == n.addr || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

// gossipView sends this node's current full view to its gossip fan-out.
// Used only where the whole view IS the news (a joiner introducing the
// seed view it was given); everything else gossips deltas.
func (n *Node) gossipView() {
	n.viewMu.Lock()
	frame := encodeView(n.view)
	targets := n.gossipTargetsLocked()
	n.viewMu.Unlock()
	n.sendGossip(frame, targets)
}

// gossipDelta sends just the changed rows to the gossip fan-out. The
// row-wise CRDT merge makes a partial view carry this update's full
// news, so the epidemic payload stays O(changed rows) instead of
// O(membership) — at 1000 members that is the difference between moving
// kilobytes and moving a gigabyte per convergence.
func (n *Node) gossipDelta(delta []membership.Member) {
	if len(delta) == 0 {
		return
	}
	dv := membership.NewView()
	for _, m := range delta {
		dv.Set(m)
	}
	n.viewMu.Lock()
	targets := n.gossipTargetsLocked()
	n.viewMu.Unlock()
	n.sendGossip(encodeView(dv), targets)
}

func (n *Node) sendGossip(frame []byte, targets []types.NodeAddr) {
	for _, t := range targets {
		if n.send(t, frame, classProv, 0) == nil {
			n.c.memb.viewFrames.Add(1)
		}
	}
}

// handleView merges a gossiped view. On change it re-gossips the changed
// rows (that is the epidemic), refutes a false suspicion of itself, and
// bootstraps any peer that just became one of its replica targets.
func (n *Node) handleView(v *membership.View) {
	n.viewMu.Lock()
	delta := n.view.MergeDelta(v)
	var boots []types.NodeAddr
	if len(delta) > 0 {
		if row, ok := n.view.Get(n.addr); ok && row.State == membership.Down && n.alive.Load() {
			// Someone suspects us but we are processing frames: refute at a
			// higher epoch than the suspicion carried.
			e := row.Epoch + 1
			if cur := n.memberEpoch.Load(); cur >= e {
				e = cur + 1
			}
			n.memberEpoch.Store(e)
			up := membership.Member{Addr: n.addr, Epoch: e, State: membership.Up}
			n.view.Set(up)
			delta = append(delta, up)
			n.c.memb.refutations.Add(1)
		}
		boots = n.refreshViewLocked(true)
	}
	n.viewMu.Unlock()
	if len(delta) == 0 {
		return
	}
	n.gossipDelta(delta)
	for _, b := range boots {
		n.sendBootstrap(b)
	}
}

// suspect marks a peer Down at its current epoch after hard transport
// evidence (transport.go calls this when a frame is abandoned with every
// dial failed and no connection ever held). The same epoch plus the
// higher Down rank wins the merge against the stale Up row everywhere,
// and the peer refutes at epoch+1 if it is actually alive.
func (n *Node) suspect(peer types.NodeAddr) {
	if !n.alive.Load() || n.c.closed.Load() || peer == n.addr {
		return
	}
	n.viewMu.Lock()
	row, ok := n.view.Get(peer)
	if !ok || !row.State.Alive() {
		n.viewMu.Unlock()
		return
	}
	down := membership.Member{Addr: peer, Epoch: row.Epoch, State: membership.Down}
	n.view.Set(down)
	boots := n.refreshViewLocked(true)
	n.viewMu.Unlock()
	n.c.memb.suspicions.Add(1)
	n.gossipDelta([]membership.Member{down})
	for _, b := range boots {
		n.sendBootstrap(b)
	}
}

// announce sets this node's own row to st at a fresh epoch and gossips
// the row.
func (n *Node) announce(st membership.State) {
	n.viewMu.Lock()
	e := n.memberEpoch.Add(1)
	if row, ok := n.view.Get(n.addr); ok && row.Epoch >= e {
		e = row.Epoch + 1
		n.memberEpoch.Store(e)
	}
	self := membership.Member{Addr: n.addr, Epoch: e, State: st}
	n.view.Set(self)
	boots := n.refreshViewLocked(true)
	n.viewMu.Unlock()
	n.gossipDelta([]membership.Member{self})
	for _, b := range boots {
		n.sendBootstrap(b)
	}
}

// serversFor returns the members that can serve L's partition when L is
// unreachable: the top-k rendezvous candidates among the non-Left members
// other than L (k at least 1 so routing works even without replication).
// Placement intentionally includes Down members — a transient failure
// must not move partitions, readers just skip to the next candidate.
func (n *Node) serversFor(L types.NodeAddr) []types.NodeAddr {
	k := n.c.replicas
	if k < 1 {
		k = 1
	}
	n.viewMu.Lock()
	cands := make([]types.NodeAddr, 0, n.view.Len())
	for _, m := range n.view.Members() {
		if m.Addr != L && m.State != membership.Left {
			cands = append(cands, m.Addr)
		}
	}
	n.viewMu.Unlock()
	return membership.Owners([]byte(L), k, cands)
}

// routeFor redirects a frame addressed to a Left member to the acting
// owner of its partition. Down members are NOT redirected: they may be
// restarting, and the transport retry budget is exactly the mechanism
// that delivers to them when they come back. Callers gate on downLeft so
// a healthy view costs one atomic load.
func (n *Node) routeFor(to types.NodeAddr) types.NodeAddr {
	n.viewMu.Lock()
	row, ok := n.view.Get(to)
	n.viewMu.Unlock()
	if !ok || row.State != membership.Left {
		return to
	}
	for _, s := range n.serversFor(to) {
		if s == n.addr || n.viewAlive(s) {
			return s
		}
	}
	return to
}

// routeWalk returns the member a walk bound for refs owned by L should
// visit: L itself while the view believes it alive, otherwise the first
// reachable rendezvous server (self counts only when it actually holds
// the partition). "" means nobody reachable can serve — the walk must
// return Partial.
func (n *Node) routeWalk(L types.NodeAddr) types.NodeAddr {
	if n.viewAlive(L) {
		return L
	}
	for _, s := range n.serversFor(L) {
		if s == n.addr {
			if n.partitionFor(L, false) != nil {
				return s
			}
			continue
		}
		if n.viewAlive(s) {
			return s
		}
	}
	return ""
}

// canServe reports whether this node can answer walk refs owned by loc:
// its own refs always, a held partition's refs only while the owner is
// unreachable (an alive owner has fresher data and serves itself).
func (n *Node) canServe(loc types.NodeAddr) bool {
	if loc == n.addr {
		return true
	}
	if n.downLeft.Load() == 0 {
		return false
	}
	if n.viewAlive(loc) {
		return false
	}
	return n.partitionFor(loc, false) != nil
}

// --- Replication ---

// replicate ships one durable-format record to this member's replica
// targets. The record bytes are exactly what the WAL logs, so owner and
// shadow replay identical streams. Off (and a single atomic load) when
// replication is disabled or the target cache is empty.
func (n *Node) replicate(rec []byte) {
	if n.c.replicas <= 0 {
		return
	}
	targets, _ := n.replTargets.Load().([]types.NodeAddr)
	if len(targets) == 0 {
		return
	}
	frame := encodeRepl(n.addr, rec)
	for _, t := range targets {
		if n.send(t, frame, classProv, 0) == nil {
			n.replRecords.Add(1)
		}
	}
}

// handleRepl applies one replicated record into the shadow of owner's
// partition, through the same record switch recovery uses. A record that
// does not decode only degrades this shadow, and is counted.
func (n *Node) handleRepl(owner types.NodeAddr, rec []byte) {
	if owner == n.addr {
		return // a confused echo; our own state is authoritative
	}
	p := n.partitionFor(owner, true)
	if p == nil {
		return
	}
	if err := p.applyRecord(n, rec, nil); err != nil {
		n.fail("replicated record of "+string(owner), err)
	}
}

// --- Handoff and read-repair ---

// handoffAckTimeout is how long a streamed snapshot may wait for its ack
// before the sender writes it off (the receiver may have died); Ready
// must not wedge on a dead receiver.
const handoffAckTimeout = 10 * time.Second

// sendHandoff streams snap (owner's partition in snapshot layout) to a
// peer. acked handoffs register an HID wait and hold the Ready gauge
// until the receiver confirms the install (or the timeout writes it off).
func (n *Node) sendHandoff(to, owner types.NodeAddr, snap []byte, acked bool) {
	hid := uint64(0)
	if acked {
		hid = n.c.nextHID.Add(1)
		ch := make(chan struct{})
		n.ackMu.Lock()
		n.handoffWaits[hid] = ch
		n.ackMu.Unlock()
		n.handoffsActive.Add(1)
		go func() {
			timer := time.NewTimer(handoffAckTimeout)
			defer timer.Stop()
			select {
			case <-ch:
			case <-timer.C:
				n.ackMu.Lock()
				if _, ok := n.handoffWaits[hid]; ok {
					delete(n.handoffWaits, hid)
					n.handoffsActive.Add(-1)
				}
				n.ackMu.Unlock()
			}
		}()
	}
	if err := n.send(to, encodeHandoff(owner, hid, acked, snap), classProv, 0); err != nil {
		if acked {
			n.handleHandoffAck(hid) // undo the registration; nothing is coming
		}
		return
	}
	n.c.memb.handoffs.Add(1)
	n.c.memb.handoffBytes.Add(int64(len(snap)))
}

// sendBootstrap streams this node's own partition to a peer that just
// became one of its replica targets, so the shadow starts complete; the
// concurrent record stream keeps it complete (merge-install makes the
// overlap safe in either order).
func (n *Node) sendBootstrap(to types.NodeAddr) {
	if !n.alive.Load() {
		return
	}
	n.sendHandoff(to, n.addr, n.self.snapshot(), true)
}

// handleHandoff installs a streamed partition by merging it into the copy
// held here. A payload for our own address is a read-repair reply and goes
// through the owner write path (mergeSelf). A payload that does not decode
// only degrades this copy, and is counted. Acked handoffs confirm back to
// the sender, whose routing flip waits on it.
func (n *Node) handleHandoff(from, owner types.NodeAddr, hid uint64, acked bool, snap []byte) {
	var err error
	if owner == n.addr {
		if err = n.mergeSelf(snap); err == nil {
			n.c.memb.repairs.Add(1)
		}
	} else if p := n.partitionFor(owner, true); p != nil {
		err = p.load(snap, n.c.names)
	}
	if err != nil {
		n.fail("handoff install of "+string(owner), err)
	}
	if acked {
		n.send(from, encodeHandoffAck(hid, owner), classProv, 0) //nolint:errcheck
	}
}

// handleHandoffAck completes one acked handoff wait.
func (n *Node) handleHandoffAck(hid uint64) {
	n.ackMu.Lock()
	ch, ok := n.handoffWaits[hid]
	if ok {
		delete(n.handoffWaits, hid)
		n.handoffsActive.Add(-1)
	}
	n.ackMu.Unlock()
	if ok {
		close(ch)
	}
}

// waitHandoffs blocks until every acked handoff this node sent has
// settled, or the timeout passes.
func (n *Node) waitHandoffs(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for n.handoffsActive.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// mergeSelf folds a snapshot payload into this node's own partition
// (read-repair) through the owner write path. The merge writes no record:
// on a durable node the merged rows never pass through the WAL, so a
// checkpoint under the same lock is what makes them survive the next crash.
func (n *Node) mergeSelf(payload []byte) (err error) {
	n.write(func() []byte { return nil }, func() {
		if err = n.self.load(payload, n.c.names); err == nil {
			n.checkpointLocked() // a no-op without a store
		}
	})
	return err
}

// handleRepairReq answers a returning owner with this node's shadow of
// its partition. Un-acked: the requester merges whatever arrives.
func (n *Node) handleRepairReq(from, owner types.NodeAddr) {
	p := n.partitionFor(owner, false)
	if p == nil {
		return
	}
	n.sendHandoff(from, owner, p.snapshot(), false)
}

// requestRepair asks every reachable rendezvous server for this node's
// partition to send its shadow back. Called after Restart; merges are
// idempotent so overlapping replies are fine.
func (n *Node) requestRepair() {
	if n.c.replicas <= 0 {
		return
	}
	frame := encodeRepairReq(n.addr)
	for _, s := range n.serversFor(n.addr) {
		if n.viewAlive(s) {
			n.send(s, frame, classProv, 0) //nolint:errcheck
		}
	}
}

// --- Join / Leave ---

// joinSettle bounds how long Join waits for bootstrap handoffs to land
// before flipping the new member Up.
const joinSettle = 5 * time.Second

// Join adds a member at runtime: the node boots with a view seeded from a
// live member plus itself Joining, announces itself, receives whatever
// partition bootstraps the new rendezvous placement sends its way, and
// flips Up once the handoffs settle. The routing table (every member's
// rendezvous map) only starts preferring the newcomer as its view learns
// of it — after its shadows exist.
func (c *Cluster) Join(addr types.NodeAddr) error {
	if c.closed.Load() {
		return fmt.Errorf("cluster: join on closed cluster")
	}
	seedFrom := c.firstAlive()
	if seedFrom == nil {
		return fmt.Errorf("cluster: no live member to join through")
	}
	seedFrom.viewMu.Lock()
	seed := seedFrom.view.Clone()
	seedFrom.viewMu.Unlock()
	seed.Set(membership.Member{Addr: addr, Epoch: 1, State: membership.Joining})
	n, err := c.newNode(addr, seed)
	if err != nil {
		return err
	}
	if c.dataDir != "" {
		if err := c.openStore(n); err != nil {
			n.ln.Close()
			return err
		}
	}
	if err := c.addNode(n); err != nil {
		n.ln.Close()
		n.durMu.Lock()
		n.closeStoreLocked()
		n.durMu.Unlock()
		return err
	}
	c.startNode(n)
	n.gossipView() // announce Joining; members react with bootstraps
	c.waitReady(joinSettle)
	n.announce(membership.Up)
	return nil
}

// Leave removes a member cooperatively: announce Leaving (no one picks it
// as a new replica target), drain in-flight traffic, stream its partition
// to the rendezvous successors and wait for their acks, announce Left
// (the routing flip — every member now redirects this address), wait for
// the cluster to learn it, then shut the node down. With Replicas == 0
// the successors' first copy is this final handoff; anything a member
// sent to the leaver after its drain window is the documented
// cooperative-leave loss window.
func (c *Cluster) Leave(addr types.NodeAddr) error {
	n := c.node(addr)
	if n == nil {
		return fmt.Errorf("cluster: leave unknown node %s", addr)
	}
	if !n.Alive() {
		return fmt.Errorf("cluster: leave dead node %s", addr)
	}
	n.announce(membership.Leaving)
	c.Quiesce(2 * time.Second) //nolint:errcheck // best-effort drain; handoff covers what settled
	start := time.Now()
	snap := n.self.snapshot()
	for _, s := range n.serversFor(n.addr) {
		if n.viewAlive(s) {
			n.sendHandoff(s, n.addr, snap, true)
		}
	}
	n.waitHandoffs(handoffAckTimeout)
	c.memb.rebalanceNs.Add(int64(time.Since(start)))
	n.announce(membership.Left)
	c.WaitMemberState(addr, membership.Left, 5*time.Second) //nolint:errcheck // best effort; redirects still converge by gossip
	n.Kill()
	return nil
}

// failoverQuerier finds a live member holding a partition shadow for L,
// walking L's rendezvous servers in placement order so every caller picks
// the same acting querier. nil when replication is off or nobody holds a
// copy.
func (c *Cluster) failoverQuerier(L types.NodeAddr) *Node {
	if c.replicas <= 0 {
		return nil
	}
	probe := c.firstAlive()
	if probe == nil {
		return nil
	}
	for _, s := range probe.serversFor(L) {
		sn := c.node(s)
		if sn == nil || !sn.Alive() {
			continue
		}
		if sn.partitionFor(L, false) != nil {
			return sn
		}
	}
	return nil
}

// announceRestart is the membership half of Cluster.Restart: the revived
// node re-announces Up at a fresh epoch (beating any Down row a suspicion
// left behind) and asks its replicas to send their shadows back so
// anything its recovery missed is read-repaired.
func (n *Node) announceRestart() {
	n.announce(membership.Up)
	n.requestRepair()
}
