// Hostile workload generators for provserve's scenario soak test
// (ROADMAP item 5): a bursty arrival process and a deletion storm. Both are
// purely deterministic — arrival times are closed-form functions of the
// configuration and storms a fixed sequence — so a soak failure reproduces
// exactly. Arrival times follow the fence-post convention of
// DNSTraffic.Schedule: a stream covering [0, d] includes events landing
// exactly on interval boundaries, including the one at d.
package workload

import (
	"time"

	"provcompress/internal/types"
)

// Bursty is an ON/OFF arrival process: each cycle of length Period opens
// with a burst window of length BurstLen during which events fire at Rate,
// followed by silence until the next cycle. Burst windows are inclusive of
// both edges (an event fires at the window start and, when BurstLen is an
// exact multiple of the event interval, at the window end).
type Bursty struct {
	Period   time.Duration // cycle length
	BurstLen time.Duration // active window at the start of each cycle
	Rate     float64       // events per second inside a burst
}

// Times returns every arrival time in [0, d], in order. For d an exact
// multiple m of Period (with BurstLen < Period an exact multiple of the
// interval), the count is m*(BurstLen/interval + 1) + 1: m full bursts
// plus the single event opening the burst that starts exactly at d.
func (w Bursty) Times(d time.Duration) []time.Duration {
	if w.Period <= 0 || w.Rate <= 0 || w.BurstLen < 0 || w.BurstLen >= w.Period {
		panic("workload: Bursty needs 0 <= BurstLen < Period and Rate > 0")
	}
	interval := time.Duration(float64(time.Second) / w.Rate)
	var out []time.Duration
	for cycle := time.Duration(0); cycle <= d; cycle += w.Period {
		for j := time.Duration(0); ; j += interval {
			if j > w.BurstLen || cycle+j > d {
				break
			}
			out = append(out, cycle+j)
			if interval == 0 {
				break
			}
		}
	}
	return out
}

// StormOp is one step of a deletion storm: an insert or a delete of a slow
// tuple.
type StormOp struct {
	Insert bool
	Tuple  types.Tuple
}

// DeletionStorm builds a deterministic slow-churn sequence that hammers
// the graveyard retention cap: every wave inserts each tuple then deletes
// it again (each delete burying the tuple, sustained waves overflowing any
// cap below the tuple count), and with Restore set a final pass re-inserts
// every tuple so a leak-free system ends with an empty graveyard and all
// state back to baseline.
type DeletionStorm struct {
	Tuples  []types.Tuple
	Waves   int
	Restore bool
}

// Ops returns the storm's operation sequence. The caller applies each op
// through its own mutation path (e.g. Cluster.InsertSlow / DeleteSlow).
func (s DeletionStorm) Ops() []StormOp {
	var ops []StormOp
	for w := 0; w < s.Waves; w++ {
		for _, t := range s.Tuples {
			ops = append(ops, StormOp{Insert: true, Tuple: t})
		}
		for _, t := range s.Tuples {
			ops = append(ops, StormOp{Insert: false, Tuple: t})
		}
	}
	if s.Restore {
		for _, t := range s.Tuples {
			ops = append(ops, StormOp{Insert: true, Tuple: t})
		}
	}
	return ops
}
