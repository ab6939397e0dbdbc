package tx

import "weihl83/internal/histories"

// readerSet holds the snapshot timestamps of the hybrid read-only
// transactions in flight, guarded by the install sequencer's lock. Each
// timestamp is drawn under the same lock that adds it, so the timestamps
// join in ascending order and the oldest active reader is the first
// unfinished entry of a FIFO. A reader that finishes behind the head waits
// in done until the head reaches it; every timestamp is pushed and popped
// once, so add, finish and horizon are amortised O(1).
type readerSet struct {
	fifo []histories.Timestamp
	head int // fifo[head:] are the readers not yet popped
	done map[histories.Timestamp]bool
}

// add registers a reader. Its timestamp must exceed every one added before.
func (s *readerSet) add(ts histories.Timestamp) {
	// Reuse the popped prefix once it is at least as long as the live
	// part, so the copy is paid for by the pops that freed the slots.
	if s.head > 0 && s.head >= len(s.fifo)-s.head {
		s.fifo = s.fifo[:copy(s.fifo, s.fifo[s.head:])]
		s.head = 0
	}
	s.fifo = append(s.fifo, ts)
}

// finish removes a reader, then pops every finished reader at the head.
func (s *readerSet) finish(ts histories.Timestamp) {
	if s.head == len(s.fifo) || s.fifo[s.head] != ts {
		if s.done == nil {
			s.done = make(map[histories.Timestamp]bool)
		}
		s.done[ts] = true
		return
	}
	for s.head++; s.head < len(s.fifo) && s.done[s.fifo[s.head]]; s.head++ {
		delete(s.done, s.fifo[s.head])
	}
}

// horizon returns the read horizon for an update committing at cts: the
// oldest active reader's timestamp, or cts when no older reader is active.
func (s *readerSet) horizon(cts histories.Timestamp) histories.Timestamp {
	if s.head < len(s.fifo) && s.fifo[s.head] < cts {
		return s.fifo[s.head]
	}
	return cts
}
