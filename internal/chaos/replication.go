package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/conflict"
	"weihl83/internal/dist"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
)

// runReplication is the replica-group mode: four sites behind a placement
// ring, every object replicated at cfg.ReplicationFactor (leader plus
// ring-walk followers), the transfer workload committing through the
// leaders — commuting legs streaming to followers asynchronously, the
// non-commuting withdrawals passing the sync barrier — while snapshot
// audits read at any follower and the replica fault points fire: delivery
// drops (fault.ReplDeliverDrop), follower crashes inside the apply windows
// (fault.ReplApplyCrash), and partition windows that isolate one site at a
// time (fault.ReplPartition).
//
// On top of the usual oracles (history atomicity, conservation, restart
// replay) the mode checks the replication invariants:
//
//   - audit snapshots are atomic: every read-only audit's two balances sum
//     to the seeded total — a transaction is observed everywhere or
//     nowhere, never half-replicated;
//   - convergence: after the run quiesces and the delivery queues drain,
//     every follower's newest replica state equals its leader's committed
//     state, for every object — and still does after every site crash-
//     restarts from its own WAL (ReplicaIn replay).
//
// The coordinator crash windows stay unarmed in this mode: an orphaned
// commit (decision durable at the coordinator, client unsure) finishes
// locally without shipping its follower deliveries, which is a documented
// divergence hazard of the asynchronous path (DESIGN §14), not a bug this
// harness should trip over.
func runReplication(ctx context.Context, cfg Config) (*Report, error) {
	inj := cfg.injector()
	rec := &recorder{}
	net := dist.NewNetwork(0, 0, cfg.Seed)
	net.SetInjector(inj)
	net.SetRPC(300*time.Microsecond, 7)

	var coords []*dist.Coordinator
	for _, id := range []dist.SiteID{"C0", "C1"} {
		c, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: id, Network: net, Injector: inj})
		if err != nil {
			return nil, err
		}
		coords = append(coords, c)
	}
	pool, err := dist.NewPool(coords...)
	if err != nil {
		return nil, err
	}

	siteIDs := []dist.SiteID{"A", "B", "C", "D"}
	sites := make(map[dist.SiteID]*dist.Site)
	for _, id := range siteIDs {
		s, err := dist.NewSite(dist.SiteConfig{
			ID:           id,
			Network:      net,
			Coordinators: pool.IDs(),
			Sink:         rec.sink(),
			Injector:     inj,
			WaitTimeout:  2 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		sites[id] = s
	}
	cascade := func(t adts.Type) locking.Guard { return conflict.ForType(t) }
	escrow := func(adts.Type) locking.Guard { return locking.EscrowGuard{} }
	table := func(t adts.Type) locking.Guard { return locking.TableGuard{Conflicts: t.Conflicts} }
	if err := sites["A"].AddObject("acct0", adts.Account(), cascade); err != nil {
		return nil, err
	}
	if err := sites["B"].AddObject("acct1", adts.Account(), escrow); err != nil {
		return nil, err
	}
	if err := sites["B"].AddObject("queue", adts.Queue(), table); err != nil {
		return nil, err
	}

	cluster := dist.NewCluster(net, pool, 0, inj)
	for _, id := range siteIDs {
		if err := cluster.Join(id); err != nil {
			return nil, err
		}
	}
	if err := cluster.EnableReplication(cfg.ReplicationFactor); err != nil {
		return nil, err
	}
	defer cluster.Close()

	m, err := tx.NewManager(tx.Config{
		Property:    tx.Dynamic,
		Coordinator: pool,
		ReadRouter:  cluster.ReadRouter(),
		MaxRetries:  10000,
		Backoff:     tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: cfg.Seed + 1},
	})
	if err != nil {
		return nil, err
	}
	objects := []histories.ObjectID{"acct0", "acct1", "queue"}
	for _, obj := range objects {
		if err := m.Register(cluster.Resource(obj, "")); err != nil {
			return nil, err
		}
	}
	// Baseline seeds must land before any traffic: every follower starts
	// from its leader's committed state.
	if err := cluster.ReplicationIdle(5 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: replication baseline seed: %w", err)
	}

	done := make(chan struct{})
	var drivers sync.WaitGroup
	stopDrivers := func() { close(done); drivers.Wait() }

	// Recoverer: revives crashed followers (fault.ReplApplyCrash takes them
	// down mid-apply) and pool members, and runs the in-doubt resolver and
	// abandoned-transaction sweeper at up sites.
	if cfg.RecoverEvery > 0 {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			tick := time.NewTicker(cfg.RecoverEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					for _, c := range coords {
						if !c.Up() {
							_ = c.Recover()
						}
					}
					for _, s := range net.Sites() {
						if !s.Up() {
							_ = s.Recover()
						} else {
							s.ResolveInDoubt(2 * time.Millisecond)
							s.AbortAbandoned(25 * time.Millisecond)
						}
					}
				}
			}
		}()
	}
	// Partition driver: when fault.ReplPartition fires on its cadence, one
	// site is split from everything else for a window, then healed. The
	// replicator's delivery plane (an external control plane, origin "")
	// rides through; what the partition stresses is the 2PC traffic of a
	// dual-role site — leader for one object, follower for another.
	if cfg.ReplicaPartitionProb > 0 {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			tick := time.NewTicker(cfg.PartitionEvery)
			defer tick.Stop()
			next := 0
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if !inj.Fires(fault.ReplPartition) {
						continue
					}
					net.Partition([]dist.SiteID{siteIDs[next%len(siteIDs)]})
					next++
					select {
					case <-done:
						net.Heal()
						return
					case <-time.After(cfg.PartitionWindow):
					}
					net.Heal()
				}
			}
		}()
	}
	if cfg.CheckpointEvery > 0 {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			tick := time.NewTicker(cfg.CheckpointEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					for _, s := range net.Sites() {
						if s.Up() {
							_, _ = s.Checkpoint()
						}
					}
					_, _ = pool.Checkpoint()
				}
			}
		}()
	}

	total := int64(cfg.Workers * cfg.Txns * perTransfer)
	var audits atomic.Int64
	var auditMu sync.Mutex
	var auditViolation error

	workErr := seedWorkload(ctx, cfg, m)
	if workErr == nil {
		// The seed deposit's deliveries must apply before audits start:
		// until then the stable snapshot legitimately predates the seed and
		// the conservation sum would read zero.
		if err := cluster.ReplicationIdle(5 * time.Second); err != nil {
			workErr = fmt.Errorf("chaos: replication seed drain: %w", err)
		}
	}
	if workErr == nil {
		// Audit workers: continuous two-object snapshot audits at the
		// followers. Per-audit retryable failures (replica lag after a
		// follower restart, route churn) are the runtime's to retry; an
		// audit that completes must see a conserved total.
		for w := 0; w < cfg.AuditWorkers; w++ {
			drivers.Add(1)
			go func() {
				defer drivers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					b0, b1, err := audit(ctx, m)
					if err != nil {
						continue // run ending or retries exhausted; not a verdict
					}
					audits.Add(1)
					if b0+b1 != total {
						auditMu.Lock()
						if auditViolation == nil {
							auditViolation = fmt.Errorf(
								"chaos: audit snapshot not atomic: acct0=%d acct1=%d sum=%d, want %d",
								b0, b1, b0+b1, total)
						}
						auditMu.Unlock()
					}
					time.Sleep(50 * time.Microsecond)
				}
			}()
		}
		workErr = runTransfers(ctx, cfg, m)
	}
	stopDrivers()

	// Final quiesce: heal, detach message faults, bring everything up and
	// resolve every in-doubt transaction, then drain the delivery queues —
	// the convergence point. The replica fault rules are disarmed
	// explicitly: detaching the network injector does not cover them (the
	// delivery path consults the cluster's and the sites' own injector), and
	// a follower crashing mid-apply after the recoverer has stopped would
	// stall the drain forever.
	net.Heal()
	net.SetInjector(nil)
	inj.Enable(fault.ReplDeliverDrop, fault.Rule{})
	inj.Enable(fault.ReplApplyCrash, fault.Rule{})
	inj.Enable(fault.ReplPartition, fault.Rule{})
	for _, c := range coords {
		if !c.Up() {
			if err := c.Recover(); err != nil {
				return nil, fmt.Errorf("chaos: final pool recovery %s: %w", c.ID(), err)
			}
		}
	}
	for round := 0; ; round++ {
		allUp := true
		pending := 0
		for _, s := range net.Sites() {
			if !s.Up() {
				if err := s.Recover(); err != nil {
					allUp = false
					continue
				}
			}
			s.ResolveInDoubt(0)
			s.AbortAbandoned(0)
			pending += s.PendingInDoubt()
		}
		if allUp && pending == 0 {
			break
		}
		if round >= 200 {
			return nil, fmt.Errorf("chaos: final recovery did not quiesce: allUp=%v pending=%d", allUp, pending)
		}
		time.Sleep(500 * time.Microsecond)
	}
	drainErr := cluster.ReplicationIdle(10 * time.Second)

	rep := &Report{Property: cfg.Property, Seed: cfg.Seed, Trace: inj.Trace(), Injector: inj.Summary()}
	rep.Commits, rep.Aborts = m.Stats()
	rep.Audits = audits.Load()
	for _, s := range net.Sites() {
		rep.Crashes += s.Crashes()
	}
	for _, c := range coords {
		rep.Crashes += c.Crashes()
	}
	h := rec.history()
	rep.Events = len(h)

	// Convergence oracle: every follower's newest replica state equals its
	// leader's committed state.
	converged := func(when string) error {
		for _, obj := range objects {
			set := cluster.ReplicaSet(obj)
			if len(set) != cfg.ReplicationFactor {
				return fmt.Errorf("chaos: replica set of %s = %v, want %d members (%s)", obj, set, cfg.ReplicationFactor, when)
			}
			leaderKey, err := sites[set[0]].CommittedStateKey(obj)
			if err != nil {
				return fmt.Errorf("chaos: leader state of %s (%s): %w", obj, when, err)
			}
			for _, f := range set[1:] {
				key, _, err := sites[f].ReplicaStateKey(obj)
				if err != nil {
					return fmt.Errorf("chaos: replica state of %s at %s (%s): %w", obj, f, when, err)
				}
				if key != leaderKey {
					return fmt.Errorf("chaos: replica %s of %s diverged (%s): %q, leader has %q", f, obj, when, key, leaderKey)
				}
			}
		}
		return nil
	}
	convErr := converged("after drain")
	rep.Converged = convErr == nil

	// Restart-replay oracle: every site crash-restarts from its WAL alone;
	// committed leader states must replay exactly and every follower copy
	// must rebuild (ReplicaIn records, checkpoint watermark) back to
	// convergence.
	before := make(map[histories.ObjectID]string)
	for _, obj := range objects {
		home, ok := cluster.HomeOf(obj)
		if !ok {
			return rep, fmt.Errorf("chaos: object %s untracked", obj)
		}
		key, err := sites[home].CommittedStateKey(obj)
		if err != nil {
			return rep, err
		}
		before[obj] = key
	}
	for _, s := range net.Sites() {
		s.Crash()
	}
	for _, s := range net.Sites() {
		if err := s.Recover(); err != nil {
			return rep, fmt.Errorf("chaos: restart oracle recovering %s: %w", s.ID(), err)
		}
	}
	var sum int64
	var replayErr error
	for _, obj := range objects {
		home, _ := cluster.HomeOf(obj)
		key, err := sites[home].CommittedStateKey(obj)
		if err != nil {
			return rep, err
		}
		if key != before[obj] && replayErr == nil {
			replayErr = fmt.Errorf("chaos: restart replay of %s = %q, live committed = %q", obj, key, before[obj])
		}
		if obj != "queue" {
			b, err := strconv.ParseInt(key, 10, 64)
			if err != nil {
				return rep, fmt.Errorf("chaos: account state %q: %w", key, err)
			}
			rep.Balances = append(rep.Balances, b)
			sum += b
		}
	}
	if convErr == nil {
		if err := converged("after restart"); err != nil {
			convErr = err
			rep.Converged = false
		}
	}
	rep.Conserved = sum == total
	rep.CheckErr = checkHistory(cfg.Property, h)
	if rep.CheckErr != "" && os.Getenv("CHAOS_DEBUG_HISTORY") != "" {
		fmt.Fprintf(os.Stderr, "=== replication checker failure: %s\n", rep.CheckErr)
		for i, e := range h {
			fmt.Fprintf(os.Stderr, "  [%04d] %s\n", i, e)
		}
	}
	auditMu.Lock()
	auditErr := auditViolation
	auditMu.Unlock()

	if workErr != nil {
		return rep, workErr
	}
	if drainErr != nil {
		return rep, fmt.Errorf("chaos: final replication drain: %w", drainErr)
	}
	if auditErr != nil {
		return rep, auditErr
	}
	if convErr != nil {
		return rep, convErr
	}
	if replayErr != nil {
		return rep, replayErr
	}
	if !rep.Conserved {
		return rep, fmt.Errorf("chaos: conservation violated: balances %v sum %d, want %d", rep.Balances, sum, total)
	}
	if rep.CheckErr != "" {
		return rep, errors.New("chaos: " + rep.CheckErr)
	}
	return rep, nil
}
