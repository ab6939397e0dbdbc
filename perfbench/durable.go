package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"weihl83"
	"weihl83/internal/adts"
	"weihl83/internal/clock"
	"weihl83/internal/conflict"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/tx"
)

// durableBank is durable-10k: the facade (dynamic atomicity, cascade
// guard) on a file-backed write-ahead log. A traced instance assembles
// the same stack from the exported constructors, as the facade does, with
// a wrapper behind every seam.
type durableBank struct {
	bank
	dir   string
	wal   recovery.Backend
	types map[weihl83.ObjectID]weihl83.ADT
	specs map[histories.ObjectID]spec.SerialSpec
	errs  func() error
}

func buildDurable(w *workload) func(context.Context, *env, *tracer, *result) (instance, error) {
	return func(ctx context.Context, e *env, tr *tracer, r *result) (instance, error) {
		b := &durableBank{dir: e.newDir()}
		b.ids, b.tr = accountIDs(w.accounts), tr
		b.types = make(map[weihl83.ObjectID]weihl83.ADT, len(b.ids))
		b.specs = make(map[histories.ObjectID]spec.SerialSpec, len(b.ids))
		for _, id := range b.ids {
			b.types[id] = weihl83.Account()
			b.specs[id] = adts.AccountSpec{}
		}
		var err error
		if tr == nil {
			err = b.openFacade(r)
		} else {
			err = b.openTraced(r)
		}
		if err != nil {
			b.close()
			return nil, err
		}
		if err := seedAccounts(ctx, b.run, b.ids); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
}

func (b *durableBank) openFacade(r *result) error {
	wal, err := weihl83.OpenFileWAL(b.dir, b.types)
	if err != nil {
		return err
	}
	b.wal = wal
	sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Dynamic, WAL: wal})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, id := range b.ids {
		if err := sys.AddObject(id, weihl83.Account(), weihl83.WithGuard(weihl83.GuardCascade)); err != nil {
			return err
		}
	}
	r.figure("setup.register_s", time.Since(t0).Seconds())
	b.run, b.errs = sys, sys.Err
	return nil
}

func (b *durableBank) openTraced(r *result) error {
	wal, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: b.dir, Specs: b.specs})
	if err != nil {
		return err
	}
	b.wal = &tracedBackend{Backend: wal, tr: b.tr}
	t0 := time.Now()
	m, objs, err := assembleDynamic(b.tr, b.wal, b.ids, nil)
	if err != nil {
		return err
	}
	r.figure("setup.register_s", time.Since(t0).Seconds())
	b.run, b.errs = m, objErrs(objs)
	return nil
}

// assembleDynamic builds what weihl83.NewSystem + AddObject(GuardCascade)
// build for a dynamic-atomicity system — a deadlock detector, a manager,
// one locking object per account — with every guard and resource behind a
// tracing wrapper. initial, when set, gives recovered base states.
func assembleDynamic(tr *tracer, wal recovery.Backend, ids []histories.ObjectID, initial map[histories.ObjectID]spec.State) (*tx.Manager, []*locking.Object, error) {
	det := locking.NewDetector()
	m, err := tx.NewManager(tx.Config{Property: tx.Dynamic, Clock: &clock.Source{}, Detector: det, WAL: wal})
	if err != nil {
		return nil, nil, err
	}
	objs := make([]*locking.Object, 0, len(ids))
	for _, id := range ids {
		ot := &objTrace{}
		g, err := wrapGuard(tr, ot, conflict.ForType(adts.Account()))
		if err != nil {
			return nil, nil, err
		}
		o, err := locking.New(locking.Config{ID: id, Type: adts.Account(), Guard: g, Detector: det, Sink: m.Sink(), Initial: initial[id]})
		if err != nil {
			return nil, nil, err
		}
		res, err := wrapResource(tr, ot, lockingNames, o)
		if err != nil {
			return nil, nil, err
		}
		if err := m.Register(res); err != nil {
			return nil, nil, err
		}
		objs = append(objs, o)
	}
	return m, objs, nil
}

// objErrs reports the first protocol invariant violation among objs, as
// System.Err does.
func objErrs[O interface{ Err() error }](objs []O) func() error {
	return func() error {
		for _, o := range objs {
			if err := o.Err(); err != nil {
				return err
			}
		}
		return nil
	}
}

// finish checks durable-10k's gate: the live balances are the ones the
// committed transactions imply; after a close, each of the pass's cold
// starts from the log directory alone recovers every balance the live
// system held, so the total is conserved. The cold starts are timed:
// they are durable-10k's setup_s.
func (b *durableBank) finish(ctx context.Context, l *ledger, r *result) error {
	live, err := balances(ctx, b.run, b.ids)
	if err != nil {
		return err
	}
	if err := checkLedger(l, live); err != nil {
		return fmt.Errorf("live state: %w", err)
	}
	if err := b.errs(); err != nil {
		return err
	}
	commits, _ := b.run.Stats()
	if err := b.wal.Close(); err != nil {
		return fmt.Errorf("closing the log: %w", err)
	}
	b.wal = nil
	bytes, err := dirBytes(b.dir)
	if err != nil {
		return err
	}
	r.figure("disk_bytes_per_txn", ratio(float64(bytes), float64(commits)))
	for i := 0; i < max(r.restarts, 1); i++ {
		if err := b.coldStart(ctx, r, live); err != nil {
			return err
		}
	}
	return nil
}

// coldStart recovers every account from the log directory, timed, and
// checks each recovered balance against the live one.
func (b *durableBank) coldStart(ctx context.Context, r *result, live []int64) error {
	var (
		rec runner
		wal recovery.Backend
	)
	err := r.coldStart.time(func() (err error) {
		rec, wal, err = b.recover(r)
		return err
	})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer wal.Close()
	got, err := balances(ctx, rec, b.ids)
	if err != nil {
		return fmt.Errorf("reading recovered state: %w", err)
	}
	for i := range got {
		if got[i] != live[i] {
			return fmt.Errorf("recovered %s holds %d, live held %d", b.ids[i], got[i], live[i])
		}
	}
	return nil
}

// recover cold-opens the log directory and rebuilds every account from it:
// OpenFileWAL + RecoverObjects through the facade, or the same steps from
// the exported constructors, timed one by one, in a traced pass.
func (b *durableBank) recover(r *result) (runner, recovery.Backend, error) {
	if b.tr == nil {
		wal, err := weihl83.OpenFileWAL(b.dir, b.types)
		if err != nil {
			return nil, nil, err
		}
		sys, err := weihl83.NewSystem(weihl83.Options{Property: weihl83.Dynamic, WAL: wal})
		if err == nil {
			err = sys.RecoverObjects(b.types, weihl83.WithGuard(weihl83.GuardCascade))
		}
		if err != nil {
			wal.Close()
			return nil, nil, err
		}
		return sys, wal, nil
	}
	t0 := time.Now()
	wal, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: b.dir, Specs: b.specs})
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	states, err := recovery.Restart(wal, b.specs)
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	t2 := time.Now()
	m, _, err := assembleDynamic(b.tr, wal, b.ids, states)
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	r.figure("recovery.open_s", t1.Sub(t0).Seconds())
	r.figure("recovery.replay_s", t2.Sub(t1).Seconds())
	r.figure("recovery.register_s", time.Since(t2).Seconds())
	return m, wal, nil
}

func (b *durableBank) close() {
	if b.wal != nil {
		b.wal.Close()
		b.wal = nil
	}
	os.RemoveAll(b.dir)
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
