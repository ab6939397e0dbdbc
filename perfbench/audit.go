package main

import (
	"context"
	"fmt"

	"weihl83"
	"weihl83/internal/adts"
	"weihl83/internal/clock"
	"weihl83/internal/conflict"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
)

// auditBank is hot-audit: the facade under hybrid atomicity with the
// cascade guard, in memory. A traced instance assembles the same stack
// from the exported constructors with a wrapper behind every seam.
type auditBank struct {
	bank
	errs func() error
}

func buildAudit(w *workload) func(context.Context, *env, *tracer, *result) (instance, error) {
	return func(ctx context.Context, e *env, tr *tracer, r *result) (instance, error) {
		b := &auditBank{}
		b.ids, b.tr, b.total = accountIDs(w.accounts), tr, seedBalance*int64(w.accounts)
		if tr == nil {
			sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Hybrid})
			if err != nil {
				return nil, err
			}
			for _, id := range b.ids {
				if err := sys.AddObject(id, weihl83.Account(), weihl83.WithGuard(weihl83.GuardCascade)); err != nil {
					return nil, err
				}
			}
			b.run, b.errs = sys, sys.Err
		} else {
			// What weihl83.NewSystem + AddObject build for a hybrid system.
			det := locking.NewDetector()
			m, err := tx.NewManager(tx.Config{Property: tx.Hybrid, Clock: &clock.Source{}, Detector: det})
			if err != nil {
				return nil, err
			}
			var objs []*hybridcc.Object
			for _, id := range b.ids {
				ot := &objTrace{}
				g, err := wrapGuard(tr, ot, conflict.ForType(adts.Account()))
				if err != nil {
					return nil, err
				}
				o, err := hybridcc.New(hybridcc.Config{ID: id, Type: adts.Account(), Guard: g, Detector: det, Sink: m.Sink()})
				if err != nil {
					return nil, err
				}
				res, err := wrapResource(tr, ot, hybridNames, o)
				if err != nil {
					return nil, err
				}
				if err := m.Register(res); err != nil {
					return nil, err
				}
				objs = append(objs, o)
			}
			b.run, b.errs = m, objErrs(objs)
		}
		if err := seedAccounts(ctx, b.run, b.ids); err != nil {
			return nil, err
		}
		return b, nil
	}
}

// finish checks hot-audit's gate: every audit saw the conserved total, the
// final balances are the ones the committed transfers imply, and no object
// reports a protocol invariant violation.
func (b *auditBank) finish(ctx context.Context, l *ledger, _ *result) error {
	if n := b.badAudits.Load(); n > 0 {
		return fmt.Errorf("%d audits saw a total other than %d (last: %d)", n, b.total, b.lastAudit.Load())
	}
	if err := b.errs(); err != nil {
		return err
	}
	got, err := balances(ctx, b.run, b.ids)
	if err != nil {
		return err
	}
	return checkLedger(l, got)
}

func (b *auditBank) close() {}
