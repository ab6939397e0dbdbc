package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/tx"
	"weihl83/internal/value"
)

// runner is what a closed-loop caller drives in the library workloads:
// the facade's System and a tx.Manager assembled from the exported
// constructors both satisfy it.
type runner interface {
	RunCtx(ctx context.Context, fn func(*tx.Txn) error) error
	RunReadOnlyCtx(ctx context.Context, fn func(*tx.Txn) error) error
	Stats() (commits, aborts int64)
}

// errRefused reports a withdrawal the account refused. Balances are seeded
// far above what a run withdraws, so it never happens in a correct run.
var errRefused = errors.New("withdrawal refused: insufficient funds")

// accountIDs names n bank accounts.
func accountIDs(n int) []histories.ObjectID {
	ids := make([]histories.ObjectID, n)
	for i := range ids {
		ids[i] = histories.ObjectID(fmt.Sprintf("acct%d", i))
	}
	return ids
}

// bank drives bank-account transactions through a runner.
type bank struct {
	run   runner
	ids   []histories.ObjectID
	tr    *tracer // nil in untraced passes
	total int64   // the conserved total every audit must see

	badAudits atomic.Int64
	lastAudit atomic.Int64
}

// runTxn runs fn as one logical transaction (retries included) through
// run. When the tracer samples the caller's transaction it becomes a
// tx.run span, and every attempt's activity id is bound to it so the seam
// wrappers can parent their spans.
func runTxn(ctx context.Context, tr *tracer, c *caller, run func(context.Context, func(*tx.Txn) error) error, fn func(*tx.Txn) error) error {
	if tr == nil || !c.measuring || !tr.sampled(c.seq) {
		return run(ctx, fn)
	}
	s := tr.begin(spTxRun, noSpan, spanID(c))
	var attempts []string
	err := run(ctx, func(t *tx.Txn) error {
		id := string(t.ID())
		attempts = append(attempts, id)
		tr.bindTxn(id, s)
		return fn(t)
	})
	tr.end(s)
	for _, id := range attempts {
		tr.unbindTxn(id)
	}
	return err
}

// spanID identifies a caller's current transaction in spans.
func spanID(c *caller) int64 { return int64(c.idx)<<40 | c.seq }

func (b *bank) exec(ctx context.Context, c *caller, o op) error {
	switch o.kind {
	case opTransfer:
		return runTxn(ctx, b.tr, c, b.run.RunCtx, func(t *tx.Txn) error {
			return transfer(t, b.ids[o.a], b.ids[o.b], o.amt)
		})
	case opDeposit:
		return runTxn(ctx, b.tr, c, b.run.RunCtx, func(t *tx.Txn) error {
			_, err := t.Invoke(b.ids[o.a], adts.OpDeposit, value.Int(o.amt))
			return err
		})
	case opRead:
		return runTxn(ctx, b.tr, c, b.run.RunReadOnlyCtx, func(t *tx.Txn) error {
			if _, err := balance(t, b.ids[o.a]); err != nil || o.b < 0 {
				return err
			}
			_, err := balance(t, b.ids[o.b])
			return err
		})
	case opAudit:
		var sum int64
		err := runTxn(ctx, b.tr, c, b.run.RunReadOnlyCtx, func(t *tx.Txn) error {
			sum = 0
			for _, id := range b.ids {
				v, err := balance(t, id)
				if err != nil {
					return err
				}
				sum += v
			}
			return nil
		})
		if err == nil && sum != b.total {
			b.badAudits.Add(1)
			b.lastAudit.Store(sum)
		}
		return err
	}
	return fmt.Errorf("unknown operation kind %d", o.kind)
}

func transfer(t *tx.Txn, from, to histories.ObjectID, amt int64) error {
	v, err := t.Invoke(from, adts.OpWithdraw, value.Int(amt))
	if err != nil {
		return err
	}
	if v == adts.InsufficientFunds {
		return errRefused
	}
	_, err = t.Invoke(to, adts.OpDeposit, value.Int(amt))
	return err
}

func balance(t *tx.Txn, id histories.ObjectID) (int64, error) {
	v, err := t.Invoke(id, adts.OpBalance, value.Nil())
	if err != nil {
		return 0, err
	}
	n, ok := v.AsInt()
	if !ok {
		return 0, fmt.Errorf("balance of %s is not an integer: %v", id, v)
	}
	return n, nil
}

// chunk is how many accounts one set-up or check transaction touches.
const chunk = 500

// seedAccounts deposits seedBalance into every account, chunk accounts per
// transaction.
func seedAccounts(ctx context.Context, r runner, ids []histories.ObjectID) error {
	for lo := 0; lo < len(ids); lo += chunk {
		part := ids[lo:min(lo+chunk, len(ids))]
		if err := r.RunCtx(ctx, func(t *tx.Txn) error {
			for _, id := range part {
				if _, err := t.Invoke(id, adts.OpDeposit, value.Int(seedBalance)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("seeding accounts: %w", err)
		}
	}
	return nil
}

// balances reads every account, chunk accounts per read-only transaction.
func balances(ctx context.Context, r runner, ids []histories.ObjectID) ([]int64, error) {
	out := make([]int64, 0, len(ids))
	for lo := 0; lo < len(ids); lo += chunk {
		part := ids[lo:min(lo+chunk, len(ids))]
		var got []int64
		if err := r.RunReadOnlyCtx(ctx, func(t *tx.Txn) error {
			got = got[:0]
			for _, id := range part {
				v, err := balance(t, id)
				if err != nil {
					return err
				}
				got = append(got, v)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("reading balances: %w", err)
		}
		out = append(out, got...)
	}
	return out, nil
}

// checkLedger compares balances read back from the system with the
// balances the callers' committed transactions imply, and the sum with the
// conserved total.
func checkLedger(l *ledger, got []int64) error {
	if l.failed > 0 {
		return fmt.Errorf("%d transactions failed; their effects are unknown", l.failed)
	}
	var sum int64
	for i, v := range got {
		if v != l.want(i) {
			return fmt.Errorf("account %d holds %d, committed transactions imply %d", i, v, l.want(i))
		}
		sum += v
	}
	if sum != l.total() {
		return fmt.Errorf("accounts sum to %d, want %d", sum, l.total())
	}
	return nil
}
