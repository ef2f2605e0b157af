package membership

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"provcompress/internal/types"
	"provcompress/internal/wire"
)

func addr(i int) types.NodeAddr {
	return types.NodeAddr(fmt.Sprintf("n%d", i))
}

func TestStateRanks(t *testing.T) {
	// Left must outrank Down (graceful departure is terminal), Down must
	// outrank the live states (a suspicion beats a stale "up" at equal
	// epoch), and the live states must merge toward the later lifecycle
	// phase (Joining < Up < Leaving).
	order := []State{Joining, Up, Leaving, Down, Left}
	for i := 1; i < len(order); i++ {
		lo := Member{Addr: "a", Epoch: 7, State: order[i-1]}
		hi := Member{Addr: "a", Epoch: 7, State: order[i]}
		if !hi.supersedes(lo) {
			t.Errorf("%v should supersede %v at equal epoch", hi.State, lo.State)
		}
		if lo.supersedes(hi) {
			t.Errorf("%v should not supersede %v at equal epoch", lo.State, hi.State)
		}
	}
	// A higher epoch beats any state rank: refutation works.
	dead := Member{Addr: "a", Epoch: 3, State: Down}
	refuted := Member{Addr: "a", Epoch: 4, State: Up}
	if !refuted.supersedes(dead) {
		t.Error("higher epoch must beat Down")
	}
	if !Joining.Alive() || !Up.Alive() || !Leaving.Alive() || Down.Alive() || Left.Alive() {
		t.Error("Alive: want joining/up/leaving alive, down/left not")
	}
}

func TestViewSetAndMerge(t *testing.T) {
	v := NewView()
	if !v.Set(Member{Addr: "a", Epoch: 1, State: Up}) {
		t.Fatal("first Set must change the view")
	}
	if v.Set(Member{Addr: "a", Epoch: 1, State: Up}) {
		t.Fatal("identical Set must be a no-op")
	}
	if v.Set(Member{Addr: "a", Epoch: 0, State: Down}) {
		t.Fatal("older epoch must lose")
	}
	if !v.Set(Member{Addr: "a", Epoch: 1, State: Down}) {
		t.Fatal("same epoch, higher rank must win")
	}
	if v.Alive("a") {
		t.Fatal("down member reported alive")
	}
	if !v.Alive("unknown") {
		t.Fatal("unknown member must default to alive")
	}

	o := NewView()
	o.Set(Member{Addr: "a", Epoch: 2, State: Up})
	o.Set(Member{Addr: "b", Epoch: 1, State: Joining})
	if !v.Merge(o) {
		t.Fatal("merge with news must report a change")
	}
	if m, _ := v.Get("a"); m.Epoch != 2 || m.State != Up {
		t.Fatalf("a after merge = %+v, want epoch 2 up", m)
	}
	if v.Merge(o) {
		t.Fatal("repeated merge must be idempotent")
	}
}

// TestMergeConvergence drives random views through merges in random
// orders and asserts they all converge to the same state — the CRDT
// property the gossip layer depends on.
func TestMergeConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		// Random ground truth: 6 members with random epochs and states.
		updates := make([]Member, 0, 24)
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				updates = append(updates, Member{
					Addr:  addr(i),
					Epoch: uint64(rng.Intn(5)),
					State: State(rng.Intn(5)),
				})
			}
		}
		// Three replicas each apply the updates in a different shuffle,
		// then merge pairwise in a random pattern.
		views := make([]*View, 3)
		for r := range views {
			views[r] = NewView()
			perm := rng.Perm(len(updates))
			for _, k := range perm {
				views[r].Set(updates[k])
			}
		}
		for step := 0; step < 10; step++ {
			a, b := rng.Intn(3), rng.Intn(3)
			views[a].Merge(views[b])
		}
		// Full pairwise exchange to finish.
		for a := range views {
			for b := range views {
				views[a].Merge(views[b])
			}
		}
		for r := 1; r < 3; r++ {
			if views[r].Version() != views[0].Version() {
				t.Fatalf("trial %d: replica %d version %d != replica 0 version %d",
					trial, r, views[r].Version(), views[0].Version())
			}
			a, b := views[0].Members(), views[r].Members()
			if len(a) != len(b) {
				t.Fatalf("trial %d: member count diverged", trial)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: member %d diverged: %+v vs %+v", trial, i, a[i], b[i])
				}
			}
		}
	}
}

func TestViewCodecRoundTrip(t *testing.T) {
	v := NewView()
	v.Set(Member{Addr: "n0", Epoch: 3, State: Up})
	v.Set(Member{Addr: "n1", Epoch: 1, State: Joining})
	v.Set(Member{Addr: "n2", Epoch: 9, State: Left})
	e := wire.NewEncoder(64)
	v.Encode(e)
	got, err := DecodeView(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != v.Version() || got.Len() != v.Len() {
		t.Fatalf("round trip lost data: %d/%d vs %d/%d",
			got.Version(), got.Len(), v.Version(), v.Len())
	}
	a, b := v.Members(), got.Members()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("member %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	// Truncated input must error, not panic.
	if _, err := DecodeView(wire.NewDecoder(e.Bytes()[:5])); err == nil {
		t.Fatal("truncated view decoded without error")
	}
	// Absurd member count must be rejected before allocation.
	bad := wire.NewEncoder(16)
	bad.U8(viewCodecVersion)
	bad.U32(maxViewMembers + 1)
	if _, err := DecodeView(wire.NewDecoder(bad.Bytes())); err == nil {
		t.Fatal("oversized view decoded without error")
	}
}

func TestOwnersDeterministicAndStable(t *testing.T) {
	members := make([]types.NodeAddr, 10)
	for i := range members {
		members[i] = addr(i)
	}
	key := []byte("partition-key-7")
	a := Owners(key, 3, members)
	b := Owners(key, 3, members)
	if len(a) != 3 {
		t.Fatalf("want 3 owners, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Owners must be deterministic")
		}
	}
	seen := map[types.NodeAddr]bool{}
	for _, o := range a {
		if seen[o] {
			t.Fatalf("duplicate owner %s", o)
		}
		seen[o] = true
	}
	// Shuffling the candidate list must not change the placement.
	shuffled := append([]types.NodeAddr(nil), members...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	c := Owners(key, 3, shuffled)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("Owners must be order-independent in candidates")
		}
	}
	if got := Owners(key, 5, members[:2]); len(got) != 2 {
		t.Fatalf("k beyond candidates: want 2, got %d", len(got))
	}
	if Owners(key, 0, members) != nil || Owners(key, 3, nil) != nil {
		t.Fatal("degenerate Owners calls must return nil")
	}
}

// fnvScore is the reference rendezvous weight: hash/fnv's FNV-1a over
// the address, a zero byte and the key.
func fnvScore(a types.NodeAddr, key []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write(key)
	return h.Sum64()
}

// ownersBySort is the reference Owners: every candidate scored by
// fnvScore and ranked by a full sort.
func ownersBySort(key []byte, k int, candidates []types.NodeAddr) []types.NodeAddr {
	if k <= 0 || len(candidates) == 0 {
		return nil
	}
	ranked := append([]types.NodeAddr(nil), candidates...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := fnvScore(ranked[i], key), fnvScore(ranked[j], key)
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked[:min(k, len(ranked))]
}

// TestOwnersMatchesReference compares Owners with ownersBySort over random
// member sets (duplicates and empty addresses included), keys and k.
func TestOwnersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		members := make([]types.NodeAddr, rng.Intn(40))
		for i := range members {
			members[i] = addr(rng.Intn(60))
			if rng.Intn(50) == 0 {
				members[i] = ""
			}
		}
		key := make([]byte, rng.Intn(24))
		rng.Read(key)
		k := rng.Intn(len(members)+3) - 1
		got, want := Owners(key, k, members), ownersBySort(key, k, members)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Owners(%x, %d, %v) = %v, want %v", trial, key, k, members, got, want)
		}
		for _, m := range members {
			if score(m, key) != fnvScore(m, key) {
				t.Fatalf("trial %d: score(%q, %x) differs from hash/fnv", trial, m, key)
			}
		}
	}
}

// TestOwnersMinimalMovement checks the rendezvous property the handoff
// protocol relies on: when f of N members fail or join, a key moves only
// if a failed member owned it or a joined one wins it, and the moved share
// stays near f/N. At 1000 members the bound is 3x f/N and at least one key
// must move, so an ownership map that ignores membership fails too.
func TestOwnersMinimalMovement(t *testing.T) {
	keyID := func(k int) []byte {
		id := types.HashBytes([]byte(fmt.Sprintf("key-%d", k)))
		return id[:]
	}
	baseline := map[[2]int][]types.NodeAddr{}
	for _, tc := range []struct {
		members, killed, joined, keys int
		minMoved, maxMoved            int
	}{
		{members: 10, joined: 1, keys: 2000, minMoved: 2000 / 20, maxMoved: 2000 / 5}, // ~1/11 expected
		{members: 1000, killed: 10, keys: 4000, minMoved: 1, maxMoved: 3 * 4000 * 10 / 1000},
		{members: 1000, joined: 10, keys: 4000, minMoved: 1, maxMoved: 3 * 4000 * 10 / 1000},
	} {
		members := make([]types.NodeAddr, tc.members)
		for i := range members {
			members[i] = addr(i)
		}
		// Rows with the same members and keys share one baseline placement.
		base := [2]int{tc.members, tc.keys}
		if baseline[base] == nil {
			for k := 0; k < tc.keys; k++ {
				baseline[base] = append(baseline[base], Owners(keyID(k), 1, members)[0])
			}
		}
		after := append([]types.NodeAddr(nil), members[:tc.members-tc.killed]...)
		for i := 0; i < tc.joined; i++ {
			after = append(after, addr(tc.members+i))
		}
		killed, joined := members[tc.members-tc.killed:], after[tc.members-tc.killed:]

		moved := 0
		for k := 0; k < tc.keys; k++ {
			from, to := baseline[base][k], Owners(keyID(k), 1, after)[0]
			if from == to {
				continue
			}
			moved++
			if !slices.Contains(killed, from) && !slices.Contains(joined, to) {
				t.Fatalf("%+v: key %d moved %s -> %s between surviving members", tc, k, from, to)
			}
		}
		if moved < tc.minMoved || moved > tc.maxMoved {
			t.Errorf("%+v: moved %d of %d keys, want %d..%d", tc, moved, tc.keys, tc.minMoved, tc.maxMoved)
		}
	}
}

func TestReplicasExcludePrimary(t *testing.T) {
	members := make([]types.NodeAddr, 6)
	for i := range members {
		members[i] = addr(i)
	}
	for _, p := range members {
		reps := Replicas(p, 2, members)
		if len(reps) != 2 {
			t.Fatalf("want 2 replicas for %s, got %d", p, len(reps))
		}
		for _, r := range reps {
			if r == p {
				t.Fatalf("replica set for %s contains the primary", p)
			}
		}
	}
	if got := Replicas("n0", 2, []types.NodeAddr{"n0"}); len(got) != 0 {
		t.Fatalf("single-member cluster must have no replicas, got %v", got)
	}
	if Replicas("n0", 0, members) != nil {
		t.Fatal("k=0 must return nil")
	}
}
