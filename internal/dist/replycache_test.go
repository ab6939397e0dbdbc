package dist

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"weihl83/internal/fault"
	"weihl83/internal/histories"
)

// newCacheSite builds a bare site whose reply cache holds cap entries.
func newCacheSite(tb testing.TB, cap int) *Site {
	tb.Helper()
	s, err := NewSite(SiteConfig{ID: "A", Network: NewNetwork(0, 0, 1), Coordinator: "C", ReplyCacheCap: cap})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// cachedIDs lists the request ids in the reply cache, ascending.
func cachedIDs(s *Site) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.replies))
	for id := range s.replies {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkReplyBound fails if the cache holds more than max(cap, pinned)
// entries, pinned counting those of undecided transactions. That is
// tighter than cap + pinned: a pass that leaves the cache over its cap
// has examined every entry, so only pinned ones remain.
func checkReplyBound(t *testing.T, s *Site) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	pinned := 0
	for _, r := range s.replies {
		if _, done := s.decided[r.txn]; !done {
			pinned++
		}
	}
	if n := len(s.replies); n > max(s.replyCap, pinned) {
		t.Fatalf("reply cache holds %d entries, cap %d, pinned %d", n, s.replyCap, pinned)
	}
}

// TestReplyCacheEvictionPinsUndecided: over its cap, the reply cache evicts
// decided entries oldest-first and never an undecided one; once the pinned
// entry's transaction is decided, a later insert evicts it.
func TestReplyCacheEvictionPinsUndecided(t *testing.T) {
	s := newCacheSite(t, 3)
	decide := func(txn histories.ActivityID) { s.outcomeApplied(txn, "acct0", true) }
	insert := func(id uint64, txn histories.ActivityID) {
		t.Helper()
		s.cacheReply(id, txn, nil, nil)
		checkReplyBound(t, s)
	}

	insert(1, "pinned") // undecided throughout the first phase
	for id := uint64(2); id <= 8; id++ {
		txn := histories.ActivityID(fmt.Sprintf("t%d", id))
		decide(txn)
		insert(id, txn)
		if id < 3 {
			continue
		}
		// The pinned entry plus the two newest decided ones.
		want := []uint64{1, id - 1, id}
		if got := cachedIDs(s); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after insert %d: cache = %v, want %v", id, got, want)
		}
	}

	// Deciding the pinned transaction evicts nothing by itself (the cache
	// is at its cap). Its last pass requeued it behind entry 7, so the
	// next insert evicts 7 and the one after evicts the formerly pinned
	// entry.
	decide("pinned")
	if got := cachedIDs(s); fmt.Sprint(got) != "[1 7 8]" {
		t.Fatalf("after deciding the pinned txn: cache = %v, want [1 7 8]", got)
	}
	decide("t9")
	insert(9, "t9")
	if got := cachedIDs(s); fmt.Sprint(got) != "[1 8 9]" {
		t.Fatalf("after insert 9: cache = %v, want [1 8 9]", got)
	}
	decide("t10")
	insert(10, "t10")
	if got := cachedIDs(s); fmt.Sprint(got) != "[8 9 10]" {
		t.Fatalf("after insert 10: cache = %v, want [8 9 10]", got)
	}

	// A cache full of undecided entries overflows by exactly the pinned
	// count, and the pass that finds them all pinned terminates.
	for id := uint64(11); id <= 15; id++ {
		insert(id, histories.ActivityID(fmt.Sprintf("u%d", id)))
	}
	if got := cachedIDs(s); fmt.Sprint(got) != "[11 12 13 14 15]" {
		t.Fatalf("with five undecided entries: cache = %v, want [11 12 13 14 15]", got)
	}
	for id := uint64(11); id <= 15; id++ {
		decide(histories.ActivityID(fmt.Sprintf("u%d", id)))
		checkReplyBound(t, s)
	}
	if got := cachedIDs(s); fmt.Sprint(got) != "[13 14 15]" {
		t.Fatalf("after deciding every entry: cache = %v, want [13 14 15]", got)
	}
}

// fillDecided fills a site's reply cache with n entries of one decided
// transaction, starting at request id *next.
func fillDecided(s *Site, n int, next *uint64) {
	s.outcomeApplied("done", "acct0", true)
	for i := 0; i < n; i++ {
		s.cacheReply(*next, "done", nil, nil)
		*next++
	}
}

// TestReplyCacheInsertDoesNotAllocate: inserting into a full cache of
// decided entries evicts one and reuses the FIFO's backing array, so the
// average insert allocates less than once (map growth is amortised away).
func TestReplyCacheInsertDoesNotAllocate(t *testing.T) {
	const cap = 1024
	s := newCacheSite(t, cap)
	var next uint64 = 1
	fillDecided(s, 4*cap, &next)
	allocs := testing.AllocsPerRun(2*cap, func() {
		s.cacheReply(next, "done", nil, nil)
		next++
	})
	if allocs >= 1 {
		t.Fatalf("cacheReply into a full cache: %.2f allocs/op, want < 1", allocs)
	}
	if got := len(cachedIDs(s)); got != cap {
		t.Fatalf("cache holds %d entries, want %d", got, cap)
	}
}

// TestSyncBarrierWakesOnDrain: a barrier blocked on a wedged delivery
// returns nil once that delivery applies — woken by the drain itself, not
// by its timeout, which is set far beyond the test's running time.
func TestSyncBarrierWakesOnDrain(t *testing.T) {
	inj := fault.New(12)
	e := newReplicated(t, 3, inj)
	rep := e.cluster.replicator()
	rep.drainTimeout = time.Hour
	inj.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: 1})
	e.deposit(t, "acct0", 10) // commuting: commits, deliveries wedge

	done := make(chan error, 1)
	go func() { done <- rep.drainObject("acct0") }()
	// Wait until the barrier has registered on the object's drained
	// channel: it saw the wedged deliveries and is blocked.
	for {
		rep.mu.Lock()
		waiting := rep.drained["acct0"] != nil
		rep.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case err := <-done:
		t.Fatalf("barrier returned (%v) with deliveries still wedged", err)
	default:
	}

	inj.Enable(fault.ReplDeliverDrop, fault.Rule{Prob: 0})
	if err := <-done; err != nil {
		t.Fatalf("barrier after the drain: %v", err)
	}
	rep.mu.Lock()
	pending, waiters := rep.pendingByObj["acct0"], len(rep.drained)
	rep.mu.Unlock()
	if pending != 0 || waiters != 0 {
		t.Fatalf("barrier returned with %d deliveries pending and %d waiter channels left", pending, waiters)
	}
	e.assertConverged(t, "acct0")
}

// TestReplRIDSpelling pins the delivery and seed ids byte for byte: they
// are logged, and recovery rebuilds the decided cache from them, so a new
// spelling would re-apply every delivery logged under the old one.
func TestReplRIDSpelling(t *testing.T) {
	cases := []struct {
		got, want histories.ActivityID
	}{
		{replRID("t1", "acct0"), "repl!t1!acct0"},
		{replRID("c0-17", "x"), "repl!c0-17!x"},
		{replRID("", ""), "repl!!"},
		{replSeedRID("acct0", 42), "repl-seed!acct0!42"},
		{replSeedRID("acct0", 0), "repl-seed!acct0!0"},
		{replSeedRID("o", 1<<62), "repl-seed!o!4611686018427387904"},
		{replSeedRID("o", -1), "repl-seed!o!-1"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

// BenchmarkCacheReply measures one insert into a full cache of decided
// entries. ns/op should not grow with the cap: eviction pops one entry.
func BenchmarkCacheReply(b *testing.B) {
	for _, cap := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			s := newCacheSite(b, cap)
			var next uint64 = 1
			fillDecided(s, 2*cap, &next)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.cacheReply(next, "done", nil, nil)
				next++
			}
		})
	}
}
