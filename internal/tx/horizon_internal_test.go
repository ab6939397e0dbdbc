package tx

import (
	"testing"

	"weihl83/internal/histories"
)

// TestHorizonReaderSetOutOfOrderFinish: readers finishing behind the head
// keep the horizon at the oldest unfinished reader, and the head skips
// them once it is reached.
func TestHorizonReaderSetOutOfOrderFinish(t *testing.T) {
	var s readerSet
	for ts := histories.Timestamp(1); ts <= 5; ts++ {
		s.add(ts)
	}
	steps := []struct {
		finish histories.Timestamp
		want   histories.Timestamp // horizon for a commit at 10
	}{
		{3, 1},
		{1, 2},
		{2, 4}, // the head skips the already finished 3
		{5, 4},
		{4, 10}, // no reader left: the commit's own timestamp
	}
	for _, st := range steps {
		s.finish(st.finish)
		if got := s.horizon(10); got != st.want {
			t.Fatalf("after finishing %d: horizon = %d, want %d", st.finish, got, st.want)
		}
	}
	if len(s.done) != 0 {
		t.Errorf("done still holds %v after every reader finished", s.done)
	}
	// The popped prefix is reused: registering again after every reader
	// finished starts from the front of the same array.
	s.add(11)
	if s.head != 0 || len(s.fifo) != 1 || s.horizon(12) != 11 {
		t.Errorf("after re-adding: head %d, fifo %v, horizon %d", s.head, s.fifo, s.horizon(12))
	}
}
