package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/dist"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/tx"
)

// Cluster shape of cluster-repl.
const (
	clusterSites  = 4
	clusterFactor = 3
)

// clusterBank is cluster-repl: a four-site cluster with a two-member
// coordinator pool at replication factor 3, accounts under the escrow
// guard. The dist layer has no facade, so both passes assemble it from the
// exported constructors; a traced instance adds a wrapper behind every
// seam (guards, cluster resources, read-router results).
type clusterBank struct {
	bank
	cluster *dist.Cluster
	sites   map[dist.SiteID]*dist.Site
}

func buildCluster(w *workload) func(context.Context, *env, *tracer, *result) (instance, error) {
	return func(ctx context.Context, e *env, tr *tracer, r *result) (instance, error) {
		net := dist.NewNetwork(0, 0, e.seed)
		net.SetRPC(300*time.Microsecond, 7)
		var coords []*dist.Coordinator
		for _, id := range []dist.SiteID{"C0", "C1"} {
			c, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: id, Network: net})
			if err != nil {
				return nil, err
			}
			coords = append(coords, c)
		}
		pool, err := dist.NewPool(coords...)
		if err != nil {
			return nil, err
		}
		b := &clusterBank{sites: map[dist.SiteID]*dist.Site{}}
		b.ids, b.tr = accountIDs(w.accounts), tr
		var sites []*dist.Site
		for i := 0; i < clusterSites; i++ {
			s, err := dist.NewSite(dist.SiteConfig{
				ID:           dist.SiteID(fmt.Sprintf("S%d", i)),
				Network:      net,
				Coordinators: pool.IDs(),
				WaitTimeout:  5 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			sites = append(sites, s)
			b.sites[s.ID()] = s
		}
		traces := make(map[histories.ObjectID]*objTrace, len(b.ids))
		for i, id := range b.ids {
			guard := func(adts.Type) locking.Guard { return locking.EscrowGuard{} }
			if tr != nil {
				ot := &objTrace{}
				traces[id] = ot
				guard = func(adts.Type) locking.Guard {
					// wrapGuard refuses only guards with unknown optional
					// interfaces; EscrowGuard has none.
					g, _ := wrapGuard(tr, ot, locking.EscrowGuard{})
					return g
				}
			}
			if err := sites[i%clusterSites].AddObject(id, adts.Account(), guard); err != nil {
				return nil, err
			}
		}
		b.cluster = dist.NewCluster(net, pool, 0, nil)
		for _, s := range sites {
			if err := b.cluster.Join(s.ID()); err != nil {
				b.close()
				return nil, err
			}
		}
		if err := b.cluster.EnableReplication(clusterFactor); err != nil {
			b.close()
			return nil, err
		}
		router := b.cluster.ReadRouter()
		if tr != nil {
			inner := router
			router = func(obj histories.ObjectID) cc.Resource {
				res := inner(obj)
				if res == nil {
					return nil
				}
				// A replica reader implements SnapshotRead only, which
				// snapshotRes reproduces; wrapResource cannot refuse it.
				w, _ := wrapResource(tr, &objTrace{}, replicaNames, res)
				return w
			}
		}
		m, err := tx.NewManager(tx.Config{
			Property:    tx.Dynamic,
			Coordinator: pool,
			ReadRouter:  router,
			MaxRetries:  10000,
			Backoff:     tx.Backoff{Base: 50 * time.Microsecond, Max: 2 * time.Millisecond, Seed: e.seed + 1},
		})
		if err != nil {
			b.close()
			return nil, err
		}
		for _, id := range b.ids {
			var res cc.Resource = b.cluster.Resource(id, "")
			if tr != nil {
				if res, err = wrapResource(tr, traces[id], distNames, res); err != nil {
					b.close()
					return nil, err
				}
			}
			if err := m.Register(res); err != nil {
				b.close()
				return nil, err
			}
		}
		b.run = m
		if err := seedAccounts(ctx, m, b.ids); err != nil {
			b.close()
			return nil, err
		}
		if err := b.cluster.ReplicationIdle(10 * time.Second); err != nil {
			b.close()
			return nil, fmt.Errorf("seeding followers: %w", err)
		}
		return b, nil
	}
}

// finish times the drain of in-flight deliveries and checks cluster-repl's
// gate: every follower's replica state equals its leader's committed
// state, and the leaders' balances are the seed plus the committed
// deposits, account by account as the committed transactions imply.
func (b *clusterBank) finish(ctx context.Context, l *ledger, r *result) error {
	t0 := time.Now()
	if err := b.cluster.ReplicationIdle(30 * time.Second); err != nil {
		return fmt.Errorf("draining deliveries: %w", err)
	}
	r.figure("repl.drain_s", time.Since(t0).Seconds())
	got := make([]int64, len(b.ids))
	for i, id := range b.ids {
		set := b.cluster.ReplicaSet(id)
		if len(set) != clusterFactor {
			return fmt.Errorf("%s has %d replicas, want %d", id, len(set), clusterFactor)
		}
		key, err := b.sites[set[0]].CommittedStateKey(id)
		if err != nil {
			return fmt.Errorf("leader state of %s: %w", id, err)
		}
		for _, f := range set[1:] {
			fk, _, err := b.sites[f].ReplicaStateKey(id)
			if err != nil {
				return fmt.Errorf("replica state of %s at %s: %w", id, f, err)
			}
			if fk != key {
				return fmt.Errorf("follower %s holds %s=%s, leader %s holds %s", f, id, fk, set[0], key)
			}
		}
		if got[i], err = strconv.ParseInt(key, 10, 64); err != nil {
			return fmt.Errorf("leader state of %s: %w", id, err)
		}
	}
	return checkLedger(l, got)
}

func (b *clusterBank) close() {
	if b.cluster != nil {
		b.cluster.Close()
	}
}
