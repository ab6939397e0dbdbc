package tx_test

import (
	"errors"
	"testing"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/clock"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

func TestRunNonRetryableStops(t *testing.T) {
	m, _ := newDynamicSystem(t, nil)
	calls := 0
	err := m.Run(func(txn *tx.Txn) error {
		calls++
		_, err := txn.Invoke("acct1", "frobnicate", value.Nil())
		return err
	})
	if !errors.Is(err, cc.ErrInvalidOp) {
		t.Errorf("Run error = %v", err)
	}
	if calls != 1 {
		t.Errorf("non-retryable error retried %d times", calls)
	}
}

func TestRunRetriesExhausted(t *testing.T) {
	m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(alwaysConflict{}); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err = m.Run(func(txn *tx.Txn) error {
		attempts++
		_, err := txn.Invoke("x", "op", value.Nil())
		return err
	})
	if err == nil {
		t.Fatal("Run succeeded against a permanently conflicting resource")
	}
	if !errors.Is(err, cc.ErrConflict) {
		t.Errorf("exhaustion error %v does not wrap the last cause", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

// alwaysConflict is a resource whose invocations always raise a retryable
// conflict.
type alwaysConflict struct{}

func (alwaysConflict) ObjectID() histories.ObjectID { return "x" }
func (alwaysConflict) Invoke(*cc.TxnInfo, spec.Invocation) (value.Value, error) {
	return value.Nil(), cc.ErrConflict
}
func (alwaysConflict) Prepare(*cc.TxnInfo) error               { return nil }
func (alwaysConflict) Commit(*cc.TxnInfo, histories.Timestamp) {}
func (alwaysConflict) Abort(*cc.TxnInfo)                       {}

func TestStaticReadOnlyNeverConflicts(t *testing.T) {
	var src clock.Source
	m := newStaticSystem(t, &src)
	// Seed.
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("x", adts.OpInsert, value.Int(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// A pure reader commits without retries regardless of position.
	for i := 0; i < 5; i++ {
		txn := m.Begin()
		if _, err := txn.Invoke("x", adts.OpMember, value.Int(1)); err != nil {
			t.Fatalf("reader aborted: %v", err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

func newHybridSystemWAL(t *testing.T, disk recovery.Backend) *tx.Manager {
	t.Helper()
	det := locking.NewDetector()
	var src clock.Source
	m, err := tx.NewManager(tx.Config{Property: tx.Hybrid, Clock: &src, Detector: det, WAL: disk})
	if err != nil {
		t.Fatal(err)
	}
	o, err := hybridcc.New(hybridcc.Config{
		ID:       "acct1",
		Type:     adts.Account(),
		Guard:    locking.EscrowGuard{},
		Detector: det,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(o); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHybridWithWAL(t *testing.T) {
	disk := &recovery.Disk{}
	m := newHybridSystemWAL(t, disk)
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(25))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// The WAL carries the intentions and a timestamped commit record.
	recs := disk.Records()
	var sawIntentions, sawCommitTS bool
	for _, r := range recs {
		switch r.Kind {
		case recovery.RecordIntentions:
			sawIntentions = len(r.Calls) > 0
		case recovery.RecordCommit:
			sawCommitTS = r.TS != histories.TSNone
		}
	}
	if !sawIntentions || !sawCommitTS {
		t.Errorf("WAL missing intentions or timestamped commit: %+v", recs)
	}
}

// TestHybridReaderLogsNothing: a snapshot reader holds no intentions, so
// its commit and its abort leave the write-ahead log untouched.
func TestHybridReaderLogsNothing(t *testing.T) {
	disk := &recovery.Disk{}
	m := newHybridSystemWAL(t, disk)
	if err := m.Run(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct1", adts.OpDeposit, value.Int(25))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := len(disk.Records())
	if err := m.RunReadOnly(func(txn *tx.Txn) error {
		_, err := txn.Invoke("acct1", adts.OpBalance, value.Nil())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m.BeginReadOnly().Abort()
	if after := len(disk.Records()); after != before {
		t.Errorf("readers appended %d log records, want none: %+v", after-before, disk.Records()[before:])
	}
}

func TestBeginAssignsDistinctIDs(t *testing.T) {
	m, _ := newDynamicSystem(t, nil)
	a, b := m.Begin(), m.Begin()
	if a.ID() == b.ID() {
		t.Error("duplicate transaction ids")
	}
	if a.Timestamp() != histories.TSNone {
		t.Error("dynamic transaction has a timestamp")
	}
	a.Abort()
	b.Abort()
	_, aborts := m.Stats()
	if aborts != 2 {
		t.Errorf("aborts = %d", aborts)
	}
}
