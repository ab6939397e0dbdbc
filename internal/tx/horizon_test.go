package tx_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/clock"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// horizonBank is a hybrid manager over two escrow accounts, with acct1
// seeded to seed and acct2 empty.
type horizonBank struct {
	m    *tx.Manager
	objs []*hybridcc.Object
}

func newHorizonBank(t *testing.T, seed int64) *horizonBank {
	t.Helper()
	det := locking.NewDetector()
	var src clock.Source
	m, err := tx.NewManager(tx.Config{Property: tx.Hybrid, Clock: &src, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	b := &horizonBank{m: m}
	for _, id := range []histories.ObjectID{"acct1", "acct2"} {
		o, err := hybridcc.New(hybridcc.Config{ID: id, Type: adts.Account(), Guard: locking.EscrowGuard{}, Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(o); err != nil {
			t.Fatal(err)
		}
		b.objs = append(b.objs, o)
	}
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(seed))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return b
}

// transfer moves amount from one account to the other, skipping the
// deposit when escrow reports insufficient funds.
func (b *horizonBank) transfer(from, to histories.ObjectID, amount int64) error {
	return b.m.Run(func(txn *tx.Txn) error {
		v, err := txn.Invoke(from, adts.OpWithdraw, value.Int(amount))
		if err != nil || v != value.Unit() {
			return err
		}
		_, err = txn.Invoke(to, adts.OpDeposit, value.Int(amount))
		return err
	})
}

// balances reads both accounts inside txn.
func balances(txn *tx.Txn) (int64, int64, error) {
	b1, err := txn.Invoke("acct1", adts.OpBalance, value.Nil())
	if err != nil {
		return 0, 0, err
	}
	b2, err := txn.Invoke("acct2", adts.OpBalance, value.Nil())
	if err != nil {
		return 0, 0, err
	}
	return b1.MustInt(), b2.MustInt(), nil
}

// maxVersions is the longest version log among the bank's objects.
func (b *horizonBank) maxVersions() int {
	n := 0
	for _, o := range b.objs {
		n = max(n, o.Versions())
	}
	return n
}

// TestHorizonPinnedReaderKeepsSnapshot: a reader that began before 1,000
// transfers still reads its exact snapshot after them, and once it
// finishes the next commit cuts every touched log back to two versions.
func TestHorizonPinnedReaderKeepsSnapshot(t *testing.T) {
	const n = 1000
	b := newHorizonBank(t, n)
	reader := b.m.BeginReadOnly()
	for i := 0; i < n; i++ {
		if err := b.transfer("acct1", "acct2", 1); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	if got := b.maxVersions(); got < n {
		t.Errorf("longest log holds %d versions while the reader pins, want at least %d", got, n)
	}
	b1, b2, err := balances(reader)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != n || b2 != 0 {
		t.Errorf("pinned reader saw (%d, %d), want its snapshot (%d, 0)", b1, b2, n)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.transfer("acct2", "acct1", 1); err != nil {
		t.Fatal(err)
	}
	if got := b.maxVersions(); got > 2 {
		t.Errorf("longest log holds %d versions after the reader finished, want at most 2", got)
	}
}

// TestHorizonNoReadersBoundsLogs: with no reader in flight, every commit
// leaves at most two versions per log.
func TestHorizonNoReadersBoundsLogs(t *testing.T) {
	b := newHorizonBank(t, 100)
	for i := 0; i < 10000; i++ {
		from, to := histories.ObjectID("acct1"), histories.ObjectID("acct2")
		if i%2 == 1 {
			from, to = to, from
		}
		if err := b.transfer(from, to, 1); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if got := b.maxVersions(); got > 2 {
			t.Fatalf("after commit %d the longest log holds %d versions, want at most 2", i, got)
		}
	}
}

// TestHorizonAbortedReaderStopsPinning: a reader leaves the active set
// however it ends — explicit Abort, an Invoke on an unregistered object
// under RunReadOnly, or a RunReadOnlyCtx whose context is cancelled — and
// stops pinning versions.
func TestHorizonAbortedReaderStopsPinning(t *testing.T) {
	// pinWhileReading reads inside txn, commits three transfers and checks
	// that the reader holds their versions.
	pinWhileReading := func(t *testing.T, b *horizonBank, txn *tx.Txn) {
		t.Helper()
		if _, _, err := balances(txn); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := b.transfer("acct1", "acct2", 1); err != nil {
				t.Fatal(err)
			}
		}
		if got := b.maxVersions(); got < 4 {
			t.Fatalf("longest log holds %d versions while a reader pins three commits, want 4", got)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, b *horizonBank)
	}{
		{"explicit abort", func(t *testing.T, b *horizonBank) {
			txn := b.m.BeginReadOnly()
			pinWhileReading(t, b, txn)
			txn.Abort()
		}},
		{"unregistered object", func(t *testing.T, b *horizonBank) {
			err := b.m.RunReadOnly(func(txn *tx.Txn) error {
				pinWhileReading(t, b, txn)
				_, err := txn.Invoke("missing", adts.OpBalance, value.Nil())
				return err
			})
			if !errors.Is(err, tx.ErrNoResource) {
				t.Fatalf("RunReadOnly = %v, want ErrNoResource", err)
			}
		}},
		{"cancelled context", func(t *testing.T, b *horizonBank) {
			ctx, cancel := context.WithCancel(context.Background())
			err := b.m.RunReadOnlyCtx(ctx, func(txn *tx.Txn) error {
				pinWhileReading(t, b, txn)
				cancel()
				return ctx.Err()
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunReadOnlyCtx = %v, want Canceled", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newHorizonBank(t, 100)
			c.run(t, b)
			if err := b.transfer("acct1", "acct2", 1); err != nil {
				t.Fatal(err)
			}
			if got := b.maxVersions(); got > 2 {
				t.Errorf("longest log holds %d versions after the reader aborted, want at most 2", got)
			}
		})
	}
}

// TestHorizonStressAuditsConserve: two transfer workers and two auditors
// run for about a second; every audit sees the conserved total while the
// logs are pruned under it, and no object reports an invariant violation.
func TestHorizonStressAuditsConserve(t *testing.T) {
	const total = 1000
	b := newHorizonBank(t, total)
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		from, to := histories.ObjectID("acct1"), histories.ObjectID("acct2")
		if w == 1 {
			from, to = to, from
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := b.transfer(from, to, 3); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}()
	}
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := b.m.RunReadOnly(func(txn *tx.Txn) error {
					b1, b2, err := balances(txn)
					if err == nil && b1+b2 != total {
						t.Errorf("audit saw (%d, %d), total %d, want %d", b1, b2, b1+b2, total)
					}
					return err
				}); err != nil {
					t.Errorf("audit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range b.objs {
		if err := o.Err(); err != nil {
			t.Errorf("%s: %v", o.ObjectID(), err)
		}
	}
}
