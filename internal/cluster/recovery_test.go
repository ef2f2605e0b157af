package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/store"
	"provcompress/internal/types"
)

// bgpLine is the members of the durable BGP chain the recovery tests boot.
var bgpLine = []types.NodeAddr{"b0", "b1", "b2", "b3", "b4", "b5", "b6"}

// bgpPrefix names prefix i.
func bgpPrefix(i int) types.Value { return types.String(fmt.Sprintf("pfx%d", i)) }

// bgpBase routes every one of n prefixes down the whole chain, and has b3
// and the chain's end own each prefix, so every advert installs two rib
// rows.
func bgpBase(n int) []types.Tuple {
	var base []types.Tuple
	for i := 0; i < n; i++ {
		for k := 0; k+1 < len(bgpLine); k++ {
			base = append(base, types.NewTuple("bgpRoute", types.String(string(bgpLine[k])), bgpPrefix(i), types.String(string(bgpLine[k+1]))))
		}
		for _, owner := range []types.NodeAddr{"b3", bgpLine[len(bgpLine)-1]} {
			base = append(base, types.NewTuple("bgpOwner", types.String(string(owner)), bgpPrefix(i)))
		}
	}
	return base
}

// bgpAdvert is advert seq of prefix i at the chain's head.
func bgpAdvert(i, seq int) types.Tuple {
	return types.NewTuple("advert", types.String(string(bgpLine[0])), bgpPrefix(i), types.String("as-origin"), types.Int(int64(seq)))
}

// bootBGP boots the durable BGP chain over dir with members nodes.
func bootBGP(dir string, nodes []types.NodeAddr) (*Cluster, error) {
	return New(Config{
		Prog:       apps.BGP(),
		Funcs:      apps.Funcs(),
		Nodes:      nodes,
		DataDir:    dir,
		Durability: store.Options{Fsync: store.SyncOff},
		Transport:  TransportConfig{RetryBudget: 12, BackoffMax: 100 * time.Millisecond},
	})
}

// memberImage is what a member's snapshot holds, in the form two
// snapshots of one state agree on: its length (map iteration orders the
// bytes, not their count) and decodedSnapshot's canonical lines.
type memberImage struct {
	bytes int
	lines string
}

func imageOf(t *testing.T, c *Cluster, addr types.NodeAddr) memberImage {
	t.Helper()
	snap := c.node(addr).self.snapshot()
	return memberImage{len(snap), strings.Join(decodedSnapshot(t, c, addr, snap), "\n")}
}

func memberImages(t *testing.T, c *Cluster) map[types.NodeAddr]memberImage {
	t.Helper()
	imgs := make(map[types.NodeAddr]memberImage)
	for addr := range c.nodeMap() {
		imgs[addr] = imageOf(t, c, addr)
	}
	return imgs
}

func sameImages(t *testing.T, when string, got, want map[types.NodeAddr]memberImage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d members, want %d", when, len(got), len(want))
	}
	for addr, w := range want {
		g := got[addr]
		if g.bytes != w.bytes {
			t.Errorf("%s: %s's snapshot is %d bytes, before close %d", when, addr, g.bytes, w.bytes)
		}
		if g.lines != w.lines {
			t.Errorf("%s: %s's snapshot holds\n%s\nbefore close\n%s", when, addr, g.lines, w.lines)
		}
	}
}

// bgpHistory loads the base and runs a history over the chain: adverts
// that open classes and adverts that reuse them, a slow insert (a sig) and
// a slow delete between them. It returns every member's image after it.
func bgpHistory(t *testing.T, c *Cluster) map[types.NodeAddr]memberImage {
	t.Helper()
	const prefixes = 24
	if err := c.LoadBase(bgpBase(prefixes)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefixes; i++ {
		if err := c.Inject(bgpAdvert(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	extra := types.NewTuple("bgpRoute", types.String("b2"), bgpPrefix(prefixes), types.String("b3"))
	if err := c.InsertSlow(extra); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prefixes; i += 2 {
		if err := c.Inject(bgpAdvert(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeleteSlow(extra); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.AllOutputs()), 2*(prefixes+prefixes/2); got != want {
		t.Fatalf("history derived %d rib rows, want %d", got, want)
	}
	return memberImages(t, c)
}

// TestParallelRecoveryRebuildsEveryMember re-opens a durable BGP chain of
// seven members twice. The members recover on parallel workers, each
// replaying its own log through a reused record buffer; every member must
// come back holding exactly what it held before Close. An apply that kept
// a slice of the record buffer would see it overwritten by later records.
// A member whose FORMAT stamp is wrong fails the boot with its own error,
// and once repaired the directory boots again.
func TestParallelRecoveryRebuildsEveryMember(t *testing.T) {
	dir := t.TempDir()
	c, err := bootBGP(dir, bgpLine)
	if err != nil {
		t.Fatal(err)
	}
	want := bgpHistory(t, c)
	c.Close()

	for round := 1; round <= 2; round++ {
		c, err := bootBGP(dir, bgpLine)
		if err != nil {
			t.Fatalf("re-open %d: %v", round, err)
		}
		if ds := c.DurabilityStats(); ds.RecoveredNodes != len(bgpLine) || ds.TornRecords != 0 || ds.Errors != 0 {
			t.Errorf("re-open %d: %+v, want every member recovered, nothing torn or failed", round, ds)
		}
		sameImages(t, fmt.Sprintf("re-open %d", round), memberImages(t, c), want)
		c.Close()
	}

	stamp := filepath.Join(dir, "b4", "FORMAT")
	good, err := os.ReadFile(stamp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stamp, []byte(fmt.Sprintln(walFormatVersion+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := bootBGP(dir, bgpLine); err == nil || !strings.Contains(err.Error(), "open store for b4") ||
		!strings.Contains(err.Error(), fmt.Sprint("version ", walFormatVersion+1)) {
		t.Fatalf("boot with b4 stamped another format: %v, want b4's format error", err)
	}
	if err := os.WriteFile(stamp, good, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = bootBGP(dir, bgpLine)
	if err != nil {
		t.Fatalf("boot after repairing b4's stamp: %v", err)
	}
	defer c.Close()
	sameImages(t, "after the repair", memberImages(t, c), want)
}

// TestJoinRecoversDurableStore: a member that joins a durable cluster
// recovers its own directory before it starts, as a boot member does.
func TestJoinRecoversDurableStore(t *testing.T) {
	dir := t.TempDir()
	c, err := bootBGP(dir, bgpLine)
	if err != nil {
		t.Fatal(err)
	}
	last := bgpLine[len(bgpLine)-1]
	want := bgpHistory(t, c)[last]
	c.Close()

	c, err = bootBGP(dir, bgpLine[:len(bgpLine)-1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join(last); err != nil {
		t.Fatal(err)
	}
	sameImages(t, "after the join", map[types.NodeAddr]memberImage{last: imageOf(t, c, last)}, map[types.NodeAddr]memberImage{last: want})
}

// TestLoadBaseAllOrNothing: a base list with a tuple at an unknown node in
// its middle loads nothing — into no member's database and, on a
// durable cluster, into no log — and the error names the tuple.
func TestLoadBaseAllOrNothing(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			c, err := bootBGP(dir, bgpLine)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			base := bgpBase(4)
			stray := types.NewTuple("bgpOwner", types.String("nowhere"), bgpPrefix(0))
			bad := append(append(append([]types.Tuple(nil), base[:len(base)/2]...), stray), base[len(base)/2:]...)
			if err := c.LoadBase(bad); err == nil || !strings.Contains(err.Error(), "nowhere") {
				t.Fatalf("LoadBase with a tuple at an unknown node: %v", err)
			}
			for addr, n := range c.nodeMap() {
				if rows := n.self.db.Count("bgpRoute") + n.self.db.Count("bgpOwner"); rows != 0 {
					t.Errorf("%s holds %d base rows after a refused load", addr, rows)
				}
			}
			if ds := c.DurabilityStats(); ds.WALRecords != 0 {
				t.Errorf("a refused load logged %d records", ds.WALRecords)
			}
			if err := c.LoadBase(base); err != nil {
				t.Fatal(err)
			}
			if got := c.node("b0").self.db.Count("bgpRoute"); got != 4 {
				t.Errorf("b0 holds %d routes after the good load, want 4", got)
			}
		})
	}
}
