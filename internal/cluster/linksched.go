package cluster

import "time"

// linkSched is one outbound link's batching rule and halt settlement. It
// reads no clock and starts no goroutine: the transport guards it with its
// mutex and drives it from one writer goroutine, and tests drive it in
// virtual time.
//
// Halt settles every frame exactly once: offer refuses a frame once the
// link has halted, so its sender settles it; a frame admitted before halt
// is the writer's, which writes the open batch (next yields it at once)
// and settles the frames still waiting.
type linkSched struct {
	waiting []outFrame // admitted, not yet in a batch: at most queueLen
	batch   []outFrame // the open batch, its backing array reused
	size    int        // payload bytes in the open batch
	opened  time.Time  // when the open batch opened
	open    bool
	halted  bool
}

// offer admits f behind the frames already waiting, unless the link has
// halted or queueLen frames wait (the open batch does not count).
func (s *linkSched) offer(f outFrame) bool {
	if s.halted || len(s.waiting) >= queueLen {
		return false
	}
	s.waiting = append(s.waiting, f)
	return true
}

// next returns the batch that is due at now, or nil and when the open
// batch will be due (zero when none is open). A batch opens at the first
// call that finds a frame waiting and takes the waiting frames in order
// until it holds maxBatchFrames or reaches maxBatchBytes, the crossing
// frame included. It is due when full, batchLinger after it opened, or
// once the link has halted; a halted link opens no batch. The returned
// slice is valid until the next call.
func (s *linkSched) next(now time.Time) ([]outFrame, time.Time) {
	if !s.open {
		if s.halted || len(s.waiting) == 0 {
			return nil, time.Time{}
		}
		s.open, s.opened, s.batch, s.size = true, now, s.batch[:0], 0
	}
	k := 0
	for ; k < len(s.waiting) && s.size < maxBatchBytes && len(s.batch) < maxBatchFrames; k++ {
		s.batch = append(s.batch, s.waiting[k])
		s.size += len(s.waiting[k].payload)
	}
	n := copy(s.waiting, s.waiting[k:])
	clear(s.waiting[n:]) // the queue keeps no payload alive
	s.waiting = s.waiting[:n]
	due := s.opened.Add(batchLinger)
	if s.size >= maxBatchBytes || len(s.batch) >= maxBatchFrames || s.halted || !now.Before(due) {
		s.open = false
		return s.batch, time.Time{}
	}
	return nil, due
}
