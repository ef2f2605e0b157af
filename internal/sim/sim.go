// Package sim provides the discrete-event scheduler underlying the
// simulated network, our stand-in for the ns-3 simulator used by the
// paper's evaluation. Virtual time is a time.Duration since simulation
// start; events fire in (time, insertion-sequence) order, which makes every
// run fully deterministic.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Scheduler is a discrete-event executor. The zero value is ready to use.
type Scheduler struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	running bool
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*q = old[:n-1]
	return e
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// At schedules fn at the absolute virtual time t. Scheduling in the past
// panics: it would break causality of the simulation.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.queue, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// step executes the earliest pending event; it reports false if none remain.
func (s *Scheduler) step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(event)
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	s.enter()
	defer s.leave()
	for s.step() {
	}
}

// RunUntil executes events with firing time <= t, then advances the clock
// to exactly t. Events scheduled beyond t stay queued.
func (s *Scheduler) RunUntil(t time.Duration) {
	s.enter()
	defer s.leave()
	for s.queue.Len() > 0 && s.queue[0].at <= t {
		s.step()
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

func (s *Scheduler) enter() {
	if s.running {
		panic("sim: Run called re-entrantly from an event handler")
	}
	s.running = true
}

func (s *Scheduler) leave() { s.running = false }
