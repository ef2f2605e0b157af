// Package membership is the elastic-cluster subsystem: a versioned view of
// the member set (who is in the cluster and in what lifecycle state) and a
// rendezvous-hash ownership map that places equivalence-key partitions and
// their replicas on members.
//
// The view is a state-based CRDT in the SWIM style: each member carries an
// epoch (its own incarnation counter) and a lifecycle state, and two views
// merge member-wise — the higher epoch wins, and at equal epochs the
// higher-ranked state wins. Merging is commutative, associative, and
// idempotent, so flooding view frames over the unreliable cluster
// transport converges regardless of ordering, duplication, or loss (any
// later exchange heals a lost frame). A member refutes a false suspicion
// by re-announcing itself at a higher epoch.
//
// Ownership uses highest-random-weight (rendezvous) hashing: every member
// scores against a partition key, the top score is the owner and the next
// k scores are its replicas. Placement is a pure function of (key, member
// list), so every node computes the same map from the same view with no
// coordinator, and adding or removing one member moves only ~1/N of the
// partitions (the minimal-movement property the handoff protocol relies
// on).
package membership

import (
	"fmt"
	"sort"

	"provcompress/internal/types"
	"provcompress/internal/wire"
)

// State is a member's lifecycle state. The rank order matters: when two
// views disagree about a member at the same epoch, the higher-ranked
// state wins the merge. Down outranks the live states (a suspicion beats
// a stale "up" without consuming an epoch), and Left outranks Down (a
// graceful departure is terminal; a later dial failure to the gone node
// must not resurrect it as merely "down").
type State uint8

const (
	// Joining members are receiving partition handoffs and must not serve
	// queries yet.
	Joining State = iota
	// Up members are full participants.
	Up
	// Leaving members are draining: still serving, handing partitions off.
	Leaving
	// Down members are suspected crashed: skipped by query routing, their
	// partitions served by replicas until they refute at a higher epoch.
	Down
	// Left members departed gracefully after handoff; terminal.
	Left
)

var stateNames = [...]string{
	Joining: "joining",
	Up:      "up",
	Leaving: "leaving",
	Down:    "down",
	Left:    "left",
}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Alive reports whether a member in this state serves traffic: it can be
// dialed and owns (or is draining) its partitions.
func (s State) Alive() bool { return s == Joining || s == Up || s == Leaving }

// Member is one row of the view: a member address, the epoch of its most
// recent self- or suspicion-announcement, and its lifecycle state.
type Member struct {
	Addr  types.NodeAddr
	Epoch uint64
	State State
}

// supersedes reports whether m wins a merge against o (same address).
func (m Member) supersedes(o Member) bool {
	if m.Epoch != o.Epoch {
		return m.Epoch > o.Epoch
	}
	return m.State > o.State
}

// View is a versioned membership map. It is not safe for concurrent use;
// callers serialize access (internal/cluster guards each node's view with
// a mutex).
type View struct {
	members map[types.NodeAddr]Member
}

// NewView returns an empty view.
func NewView() *View {
	return &View{members: make(map[types.NodeAddr]Member)}
}

// Get returns a member row.
func (v *View) Get(addr types.NodeAddr) (Member, bool) {
	m, ok := v.members[addr]
	return m, ok
}

// Set installs a member row unconditionally if it supersedes the current
// row (or the member is unknown), reporting whether the view changed.
// Local authoritative updates (a node announcing itself, a detector
// raising a suspicion) go through Set; remote views go through Merge.
func (v *View) Set(m Member) bool {
	cur, ok := v.members[m.Addr]
	if ok && !m.supersedes(cur) {
		return false
	}
	v.members[m.Addr] = m
	return true
}

// Merge folds another view in member-wise, reporting whether anything
// changed. It is commutative, associative, and idempotent.
func (v *View) Merge(o *View) bool {
	return len(v.MergeDelta(o)) > 0
}

// MergeDelta is Merge returning the rows that actually superseded local
// state. Because the merge is row-wise, a view holding only those rows
// carries the full news of this merge: re-gossiping the delta instead of
// the whole view is what keeps an N-member convergence from moving
// O(N^2) view bytes.
func (v *View) MergeDelta(o *View) []Member {
	var delta []Member
	for _, m := range o.Members() {
		if v.Set(m) {
			delta = append(delta, m)
		}
	}
	return delta
}

// Clone returns an independent copy.
func (v *View) Clone() *View {
	c := &View{members: make(map[types.NodeAddr]Member, len(v.members))}
	for a, m := range v.members {
		c.members[a] = m
	}
	return c
}

// Members returns the rows sorted by address, for stable display and
// deterministic iteration.
func (v *View) Members() []Member {
	out := make([]Member, 0, len(v.members))
	for _, m := range v.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Len returns the number of known members (any state).
func (v *View) Len() int { return len(v.members) }

// Alive reports whether the view believes a member serves traffic.
// Unknown members are treated as alive: the view is advisory, and routing
// around a member requires positive evidence of its death, not absence of
// evidence.
func (v *View) Alive(addr types.NodeAddr) bool {
	m, ok := v.members[addr]
	return !ok || m.State.Alive()
}

// AliveAddrs returns the alive members' addresses, sorted.
func (v *View) AliveAddrs() []types.NodeAddr {
	var out []types.NodeAddr
	for a, m := range v.members {
		if m.State.Alive() {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Version summarizes the view's progress: the sum of member epochs and
// state ranks. It grows monotonically under Set/Merge (both only replace
// a row with a superseding one), so converged views report equal versions
// and a version increase means new information arrived.
func (v *View) Version() uint64 {
	var sum uint64
	for _, m := range v.members {
		sum += m.Epoch + uint64(m.State)
	}
	return sum
}

// viewCodecVersion tags the encoded view layout.
const viewCodecVersion = 1

// maxViewMembers bounds a decoded view; anything larger is corruption,
// not a plausible cluster.
const maxViewMembers = 1 << 20

// Encode serializes the view.
func (v *View) Encode(e *wire.Encoder) {
	e.U8(viewCodecVersion)
	e.U32(uint32(len(v.members)))
	for _, m := range v.Members() {
		e.Str(string(m.Addr))
		e.U64(m.Epoch)
		e.U8(uint8(m.State))
	}
}

// DecodeView rebuilds a view from its encoding.
func DecodeView(d *wire.Decoder) (*View, error) {
	if ver := d.U8(); d.Err() == nil && ver != viewCodecVersion {
		return nil, fmt.Errorf("membership: unsupported view version %d", ver)
	}
	n := d.U32()
	if n > maxViewMembers {
		return nil, fmt.Errorf("membership: view with %d members", n)
	}
	v := NewView()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var m Member
		m.Addr = types.NodeAddr(d.Str())
		m.Epoch = d.U64()
		m.State = State(d.U8())
		v.members[m.Addr] = m
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("membership: corrupt view: %w", err)
	}
	return v, nil
}

// --- Rendezvous (highest-random-weight) ownership ---

// FNV-1a 64-bit parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// score is the rendezvous weight of one (member, key) pair: FNV-1a over
// the address, a zero byte and the key, computed inline so that scoring
// a candidate allocates nothing.
func score(addr types.NodeAddr, key []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * fnvPrime64
	}
	h *= fnvPrime64 // the zero separator
	for _, b := range key {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// Owners returns the top-k members for a partition key by rendezvous
// hashing, best first. Ties break by address so the order is total. The
// candidate list is typically the full member set regardless of liveness:
// placement must be stable across transient failures (a down member keeps
// its slot; readers skip to the next owner), and only actual membership
// changes (join/leave) move partitions.
func Owners(key []byte, k int, candidates []types.NodeAddr) []types.NodeAddr {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	k = min(k, len(candidates))
	// The best k so far, best first: a k-slot insertion, not a sort of
	// every candidate.
	out := make([]types.NodeAddr, 0, k)
	scores := make([]uint64, 0, k)
	for _, a := range candidates {
		s := score(a, key)
		i := len(out)
		for i > 0 && (s > scores[i-1] || s == scores[i-1] && a < out[i-1]) {
			i--
		}
		if i == k {
			continue
		}
		if len(out) < k {
			out, scores = append(out, ""), append(scores, 0)
		}
		copy(out[i+1:], out[i:])
		copy(scores[i+1:], scores[i:])
		out[i], scores[i] = a, s
	}
	return out
}

// Replicas returns the k replica holders for a member's partition: the
// best k candidates, by rendezvous over the member's own address as the
// partition key, excluding the member itself. In the located-data model
// (tuples live at the node their @-attribute names) a node's primary
// partition is the union of the equivalence-key partitions stored there,
// so the replica set is keyed by the node address.
func Replicas(primary types.NodeAddr, k int, candidates []types.NodeAddr) []types.NodeAddr {
	if k <= 0 {
		return nil
	}
	eligible := make([]types.NodeAddr, 0, len(candidates))
	for _, a := range candidates {
		if a != primary {
			eligible = append(eligible, a)
		}
	}
	return Owners([]byte(primary), k, eligible)
}
