package cluster

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"provcompress/internal/types"
)

// FaultPlan deterministically injects transport faults into the cluster:
// failed writes, write stalls, and one-shot torn connections, all keyed
// off a seeded per-link RNG so a chaos run is reproducible. Node crashes
// are driven explicitly through Node.Kill and Cluster.Restart rather than
// by the RNG, so tests control exactly when a member disappears.
//
// The plan acts only on the connections a link dials: every fault is a
// socket failure the transport handles like a real one (close, redial,
// back off, retry), so it recovers from any plan whose faults strike with
// probability < 1; the plan models a lossy network, not a lossy
// application.
type FaultPlan struct {
	// Seed keys the per-link RNG streams; two runs with the same seed and
	// the same plan inject the same fault at the same write index of
	// every link.
	Seed int64
	// Drop is the per-write probability that the write fails and sends
	// nothing (transient link loss).
	Drop float64
	// Delay is the per-write probability that the write stalls for
	// DelayFor before proceeding (a slow peer or congested link); a stall
	// that outlasts the write deadline fails as a timeout.
	Delay float64
	// DelayFor is how long a delayed write stalls (default 5ms).
	DelayFor time.Duration
	// ResetAfter, when positive, tears each link's connection once after
	// that many successful writes: the next write sends only part of its
	// frame and the connection closes (a one-shot mid-stream RST).
	ResetAfter int
}

// faultAction is what the plan injects on one write.
type faultAction int

const (
	faultNone faultAction = iota
	faultDrop
	faultDelay
	faultReset
)

// linkSeed derives a stable per-link RNG seed from the plan seed and the
// link endpoints.
func linkSeed(seed int64, from, to types.NodeAddr) int64 {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{'>'})
	h.Write([]byte(to))
	return seed ^ int64(h.Sum64())
}

// linkFaults is the per-link fault stream. One exists per link and
// outlives the link's connections; only the link's writer goroutine
// touches it, so the injected sequence is a deterministic function of
// (plan, link, write index).
type linkFaults struct {
	plan  *FaultPlan
	rng   *rand.Rand
	sends int  // successful writes on this link
	reset bool // the one-shot reset already fired
}

// link returns the fault stream for one directed link (nil plan = nil
// stream = no faults).
func (p *FaultPlan) link(from, to types.NodeAddr) *linkFaults {
	if p == nil {
		return nil
	}
	return &linkFaults{
		plan: p,
		rng:  rand.New(rand.NewSource(linkSeed(p.Seed, from, to))),
	}
}

// delayFor returns the stall duration for a delay fault.
func (l *linkFaults) delayFor() time.Duration {
	if l.plan.DelayFor > 0 {
		return l.plan.DelayFor
	}
	return 5 * time.Millisecond
}

// next draws the fault action for the next write.
func (l *linkFaults) next() faultAction {
	if l.plan.ResetAfter > 0 && !l.reset && l.sends >= l.plan.ResetAfter {
		l.reset = true
		return faultReset
	}
	if l.plan.Drop <= 0 && l.plan.Delay <= 0 {
		return faultNone
	}
	r := l.rng.Float64()
	if r < l.plan.Drop {
		return faultDrop
	}
	if r < l.plan.Drop+l.plan.Delay {
		return faultDelay
	}
	return faultNone
}

// sent records one successful write (feeds the one-shot reset trigger).
func (l *linkFaults) sent() { l.sends++ }

// dialer returns how the link from→to connects: plain TCP to the peer's
// current address (it changes on Restart, so every dial reads it), and
// under a FaultPlan each connection wrapped in the link's fault stream.
func (c *Cluster) dialer(from *Node, to types.NodeAddr) func() (net.Conn, error) {
	faults := c.faults.link(from.addr, to)
	return func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", c.node(to).listenAddr(), dialTimeout)
		if err != nil || faults == nil {
			return conn, err
		}
		return &faultConn{Conn: conn, faults: faults, stats: &from.stats, closed: make(chan struct{})}, nil
	}
}

var (
	errFaultDrop  = errors.New("cluster: write dropped by the fault plan")
	errFaultReset = errors.New("cluster: connection torn by the fault plan")
)

// faultConn is a link's connection under a FaultPlan. Each Write draws the
// link's next fault and fails, stalls or tears the way a socket does; the
// transport sees nothing but the write's outcome.
type faultConn struct {
	net.Conn
	faults   *linkFaults
	stats    *transportStats
	deadline time.Time // the write deadline last set (writer goroutine only)

	closeOnce sync.Once
	closed    chan struct{} // closed by Close: ends a stall
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.deadline = t
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) Write(p []byte) (int, error) {
	switch c.faults.next() {
	case faultDrop:
		c.stats.faultDrops.Add(1)
		return 0, errFaultDrop
	case faultDelay:
		c.stats.faultDelays.Add(1)
		if err := c.stall(c.faults.delayFor()); err != nil {
			return 0, err
		}
	case faultReset:
		c.stats.faultResets.Add(1)
		n, _ := c.Conn.Write(p[:len(p)/2]) // the torn frame; the write fails either way
		c.Close()
		return n, errFaultReset
	}
	n, err := c.Conn.Write(p)
	if err == nil {
		c.faults.sent()
	}
	return n, err
}

// stall waits d, failing as a timeout if the write deadline passes first
// and as a closed connection if Close comes first.
func (c *faultConn) stall(d time.Duration) error {
	var err error
	if until := time.Until(c.deadline); !c.deadline.IsZero() && until < d {
		d, err = until, os.ErrDeadlineExceeded
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return err
	case <-c.closed:
		return net.ErrClosed
	}
}
