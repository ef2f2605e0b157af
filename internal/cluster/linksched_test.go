package cluster

import (
	"fmt"
	"testing"
	"time"

	"provcompress/internal/raceflag"
)

// arrival offers n frames of size payload bytes each (1 when zero) at a
// virtual time.
type arrival struct {
	at      time.Duration
	n, size int
}

// sentBatch is one batch the driver wrote: when next yielded it and how
// many frames it carried.
type sentBatch struct {
	at     time.Duration
	frames int
}

// driveSched runs a linkSched in virtual time the way the transport's
// writer does: it asks for the due batch after every arrival, when the
// deadline next returned passes, and when a write (taking write) ends;
// a halt at haltAt (when positive) precedes that instant's arrivals. It
// returns the batches written, the offers refused, and the frames the
// writer had to settle after halt.
func driveSched(arrivals []arrival, write, haltAt time.Duration) (sent []sentBatch, refused, rest int) {
	var s linkSched
	t0 := time.Unix(0, 0)
	var now, busy, due time.Duration
	for i := 0; ; {
		if haltAt > 0 && now == haltAt {
			s.halted = true
		}
		for ; i < len(arrivals) && arrivals[i].at == now; i++ {
			for k := 0; k < arrivals[i].n; k++ {
				if !s.offer(outFrame{payload: make([]byte, max(arrivals[i].size, 1))}) {
					refused++
				}
			}
		}
		due = 0
		for now >= busy {
			b, wake := s.next(t0.Add(now))
			if b != nil {
				sent = append(sent, sentBatch{now, len(b)})
				busy = now + write
				continue
			}
			if s.halted {
				return sent, refused, len(s.waiting)
			}
			if !wake.IsZero() {
				due = wake.Sub(t0)
			}
			break
		}
		// Advance to the earliest pending instant.
		next := time.Duration(-1)
		for _, at := range []time.Duration{due, busy, haltAt} {
			if at > now && (next < 0 || at < next) {
				next = at
			}
		}
		if i < len(arrivals) && (next < 0 || arrivals[i].at < next) {
			next = arrivals[i].at
		}
		if next < 0 {
			return sent, refused, 0
		}
		now = next
	}
}

// TestLinkSchedBatchBoundaries pins the batches the scheduler forms on
// scripted arrival schedules: when a batch opens, what it takes, and
// what closes it.
func TestLinkSchedBatchBoundaries(t *testing.T) {
	const ms = time.Millisecond
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	cases := []struct {
		name     string
		arrivals []arrival
		write    time.Duration
		haltAt   time.Duration
		want     []sentBatch
		refused  int
		rest     int
	}{
		{
			name:     "a lone frame leaves as a batch of one after the linger",
			arrivals: []arrival{{at: 0, n: 1}},
			want:     []sentBatch{{batchLinger, 1}},
		},
		{
			name:     "arrivals within the linger coalesce; a later one opens the next batch",
			arrivals: []arrival{{at: 0, n: 1}, {at: us(200), n: 2}, {at: us(999), n: 1}, {at: us(1500), n: 1}},
			want:     []sentBatch{{batchLinger, 4}, {us(1500) + batchLinger, 1}},
		},
		{
			name:     "a batch closes at maxBatchFrames at once",
			arrivals: []arrival{{at: 0, n: maxBatchFrames + 88}},
			want:     []sentBatch{{0, maxBatchFrames}, {batchLinger, 88}},
		},
		{
			name:     "a batch closes at maxBatchBytes with the crossing frame included",
			arrivals: []arrival{{at: 0, n: 10, size: 10000}},
			want:     []sentBatch{{0, 7}, {batchLinger, 3}},
		},
		{
			name:     "frames that arrive during a write form the next batch, lingering from when it opens",
			arrivals: []arrival{{at: 0, n: 1}, {at: 2 * ms, n: 1}, {at: 3 * ms, n: 2}, {at: us(6500), n: 1}, {at: 8 * ms, n: 1}},
			write:    5 * ms,
			want:     []sentBatch{{batchLinger, 1}, {6*ms + batchLinger, 4}, {12*ms + batchLinger, 1}},
		},
		{
			name: "the open batch does not count against queueLen",
			// The first frame opens a batch; the burst fills the queue
			// behind it before the writer looks again.
			arrivals: []arrival{{at: 0, n: 1}, {at: us(100), n: queueLen + 1}},
			want:     []sentBatch{{us(100), maxBatchFrames}, {us(100), maxBatchFrames}, {us(100) + batchLinger, 1}},
			refused:  1,
		},
		{
			name:     "halt during a linger yields the open batch",
			arrivals: []arrival{{at: 0, n: 2}},
			haltAt:   us(500),
			want:     []sentBatch{{us(500), 2}},
		},
		{
			name:     "halt refuses later frames and leaves the waiting ones to the writer",
			arrivals: []arrival{{at: 0, n: 1}, {at: 2 * ms, n: 3}, {at: 3 * ms, n: 2}},
			write:    5 * ms,
			haltAt:   3 * ms,
			want:     []sentBatch{{batchLinger, 1}},
			refused:  2,
			rest:     3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sent, refused, rest := driveSched(tc.arrivals, tc.write, tc.haltAt)
			if fmt.Sprint(sent) != fmt.Sprint(tc.want) {
				t.Errorf("batches %v, want %v", sent, tc.want)
			}
			if refused != tc.refused || rest != tc.rest {
				t.Errorf("refused %d and left %d to settle, want %d and %d", refused, rest, tc.refused, tc.rest)
			}
		})
	}
}

// TestLinkSchedAllocs: once warm, an offer → take-batch cycle allocates
// nothing — no timer, queue or batch per batch.
func TestLinkSchedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var s linkSched
	frames := make([]outFrame, 8)
	for i := range frames {
		frames[i].payload = make([]byte, 64)
	}
	now := time.Unix(0, 0)
	cycle := func() {
		for _, f := range frames {
			s.offer(f)
		}
		s.next(now) // opens the batch
		now = now.Add(batchLinger)
		if b, _ := s.next(now); len(b) != len(frames) {
			t.Fatalf("took a batch of %d, want %d", len(b), len(frames))
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("offer → take-batch cycle: %.1f allocs, want 0", allocs)
	}
}
