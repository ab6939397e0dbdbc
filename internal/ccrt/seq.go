package ccrt

import (
	"sync"

	"weihl83/internal/obs"
)

var (
	obsTickets     = obs.Default.Counter("ccrt.seq.tickets")
	obsTicketWaits = obs.Default.Counter("ccrt.seq.waits")
	obsAbandoned   = obs.Default.Counter("ccrt.seq.abandoned")
)

// Ticket is a position in a Sequencer's install order.
type Ticket struct {
	n int64
}

// Sequencer orders a critical phase (hybrid commit installation) without a
// lock held across the whole phase. A transaction Reserves a ticket —
// atomically with drawing its commit timestamp, via ReserveWith — does its
// unordered work (write-ahead logging, coordinator decision), then Waits
// its turn, installs, and calls Done. A transaction that dies after
// reserving calls Abandon so successors are not blocked behind a ticket
// that will never be served.
//
// Because the ticket and the commit timestamp are drawn under one lock,
// ticket order equals timestamp order; because installation happens between
// Wait and Done, installs happen in ticket order. Together: version logs
// grow in timestamp order and the timestamp order stays consistent with
// precedes (§4.3.3), the invariant the old global commit mutex enforced by
// serializing everything.
type Sequencer struct {
	mu        sync.Mutex
	next      int64 // next ticket number to issue
	serving   int64 // lowest ticket not yet retired
	abandoned map[int64]bool
	waiters   map[int64]chan struct{}
}

// Do runs fn under the sequencer lock without issuing a ticket: fn is
// ordered against every ReserveWith's fn, but nothing ever waits for it, so
// it cannot hold up Wait or Done. Hybrid read-only transactions draw their
// snapshot timestamp and join the active-reader set in one Do, so no commit
// timestamp drawn under ReserveWith can miss a reader already holding a
// smaller timestamp.
func (s *Sequencer) Do(fn func()) {
	s.mu.Lock()
	fn()
	s.mu.Unlock()
}

// Reserve issues the next ticket.
func (s *Sequencer) Reserve() Ticket { return s.ReserveWith(nil) }

// ReserveWith issues the next ticket, running fn under the sequencer lock
// so whatever fn captures (a commit timestamp from a shared clock) is drawn
// atomically with the ticket: ticket order == fn-execution order.
func (s *Sequencer) ReserveWith(fn func()) Ticket {
	s.mu.Lock()
	t := Ticket{n: s.next}
	s.next++
	if fn != nil {
		fn()
	}
	s.mu.Unlock()
	obsTickets.Inc()
	return t
}

// Wait blocks until every earlier ticket has been retired (Done or
// Abandoned). On return the caller holds its turn exclusively until it
// calls Done.
func (s *Sequencer) Wait(t Ticket) {
	s.mu.Lock()
	for s.serving != t.n {
		if s.waiters == nil {
			s.waiters = make(map[int64]chan struct{})
		}
		ch := s.waiters[t.n]
		if ch == nil {
			ch = make(chan struct{})
			s.waiters[t.n] = ch
		}
		s.mu.Unlock()
		obsTicketWaits.Inc()
		<-ch
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// Done retires the caller's ticket after Wait returned, handing the turn to
// the next live ticket.
func (s *Sequencer) Done(t Ticket) {
	s.mu.Lock()
	if s.serving == t.n {
		s.serving++
		s.advanceLocked()
	}
	s.mu.Unlock()
}

// Abandon retires a ticket whose holder will never install (the
// transaction aborted or was orphaned after reserving). Safe to call
// whether or not the ticket's turn has arrived.
func (s *Sequencer) Abandon(t Ticket) {
	obsAbandoned.Inc()
	s.mu.Lock()
	if s.serving == t.n {
		s.serving++
		s.advanceLocked()
	} else {
		if s.abandoned == nil {
			s.abandoned = make(map[int64]bool)
		}
		s.abandoned[t.n] = true
	}
	s.mu.Unlock()
}

// advanceLocked skips over abandoned tickets and wakes the waiter of the
// ticket now being served — a targeted handoff, not a broadcast. Callers
// must hold s.mu.
func (s *Sequencer) advanceLocked() {
	for s.abandoned[s.serving] {
		delete(s.abandoned, s.serving)
		s.serving++
	}
	if ch, ok := s.waiters[s.serving]; ok {
		close(ch)
		delete(s.waiters, s.serving)
	}
}
