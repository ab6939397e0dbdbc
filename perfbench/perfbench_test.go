package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/cc"
	"weihl83/internal/conflict"
	"weihl83/internal/dist"
	"weihl83/internal/histories"
	"weihl83/internal/hybridcc"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
)

func TestQuantileKnownInputs(t *testing.T) {
	seq := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		in       samples
		permille int
		want     int64
	}{
		{seq(100), 500, 50},
		{seq(100), 990, 99},
		{seq(1000), 990, 990},
		{seq(1000), 999, 999},
		{seq(3), 500, 2},
		{seq(4), 500, 2},
		{seq(1), 990, 1},
		{seq(10), 990, 10},
		{samples{7, 3, 9, 1}.sorted(), 500, 3},
		{nil, 500, 0},
	} {
		if got := quantile(tc.in, tc.permille); got != tc.want {
			t.Errorf("quantile(n=%d, %d‰) = %d, want %d", len(tc.in), tc.permille, got, tc.want)
		}
	}
	// Bucketed quantiles read an 89µs median as 131µs; raw samples do not.
	if got := quantile(samples{89_000, 89_000, 89_000}, 500); got != 89_000 {
		t.Errorf("median of three 89µs samples = %d ns", got)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestQuietSelection(t *testing.T) {
	// The tenth with the least stolen time is kept, with every tie.
	keep := leastStolen([]float64{3, 0, 5, 0, 1, 0, 2, 9, 4, 0, 7, 0})
	want := []bool{false, true, false, true, false, true, false, false, false, true, false, true}
	if fmt.Sprint(keep) != fmt.Sprint(want) {
		t.Errorf("leastStolen kept %v, want %v", keep, want)
	}
	// With no steal at all every interval counts.
	for i, k := range leastStolen(make([]float64, 7)) {
		if !k {
			t.Errorf("steal-free interval %d dropped", i)
		}
	}
	// A burst of slow samples in one tenth of the window moves that
	// chunk's p99 only; a tail present throughout moves the figure.
	xs := make([]timed, 10_000)
	for i := range xs {
		xs[i] = timed{at: int64(i), lat: 100}
		if i%50 == 0 {
			xs[i].lat = 200
		}
		if i < 1000 && i%5 == 0 {
			xs[i].lat = 5000
		}
	}
	all, p99 := tail(xs)
	if len(all) != len(xs) || all[0] != 100 || all[len(all)-1] != 5000 {
		t.Fatalf("tail did not return the samples sorted")
	}
	if p99 != 200 {
		t.Errorf("chunked p99 = %d, want 200 (the burst confined to one chunk)", p99)
	}
	if got := quantile(all, 990); got != 5000 {
		t.Errorf("pooled p99 = %d, want 5000", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		for c := 0; c < callers; c++ {
			a, b := w.mix(callerRand(42, c), w.accounts), w.mix(callerRand(42, c), w.accounts)
			other := w.mix(callerRand(43, c), w.accounts)
			same := true
			for i := 0; i < 2000; i++ {
				x, y, z := a(), b(), other()
				if x != y {
					t.Fatalf("%s caller %d: op %d differs for one seed: %+v vs %+v", w.name, c, i, x, y)
				}
				same = same && x == z
				if x.a < 0 || x.a >= w.accounts || x.b >= w.accounts {
					t.Fatalf("%s: op %+v addresses an account outside 0..%d", w.name, x, w.accounts-1)
				}
				if x.kind == opTransfer && (x.a == x.b || x.amt < 1) {
					t.Fatalf("%s: malformed transfer %+v", w.name, x)
				}
			}
			if same {
				t.Errorf("%s caller %d: seeds 42 and 43 gave the same sequence", w.name, c)
			}
		}
	}
}

// TestWrapperFidelity checks that every seam wrapper has exactly the
// optional interfaces of the value it wraps, for every kind of value the
// workloads put behind a seam.
func TestWrapperFidelity(t *testing.T) {
	tr := newTracer(1)

	det := locking.NewDetector()
	lobj, err := locking.New(locking.Config{ID: "l", Type: adts.Account(), Guard: conflict.ForType(adts.Account()), Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	hobj, err := hybridcc.New(hybridcc.Config{ID: "h", Type: adts.Account(), Guard: conflict.ForType(adts.Account()), Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := smallCluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	resources := map[string]struct {
		res   cc.Resource
		names resNames
	}{
		"locking.Object":   {lobj, lockingNames},
		"hybridcc.Object":  {hobj, hybridNames},
		"ClusterResource":  {cluster.Resource("a0", ""), distNames},
		"ReadRouter reply": {cluster.ReadRouter()("a0"), replicaNames},
	}
	for name, r := range resources {
		if r.res == nil {
			t.Fatalf("%s: no resource", name)
		}
		w, err := wrapResource(tr, &objTrace{}, r.names, r.res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := ifaceSet(w), ifaceSet(r.res); got != want || want == "" {
			t.Errorf("%s: wrapper implements %q, inner %q", name, got, want)
		}
	}
	for name, g := range map[string]locking.Guard{
		"conflict.Engine": conflict.ForType(adts.Account()),
		"EscrowGuard":     locking.EscrowGuard{},
	} {
		w, err := wrapGuard(tr, &objTrace{}, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := ifaceSet(w), ifaceSet(g); got != want {
			t.Errorf("%s: wrapper implements %q, inner %q", name, got, want)
		}
	}
	var _ recovery.Backend = (*tracedBackend)(nil)
	if _, err := wrapResource(tr, &objTrace{}, lockingNames, bareResource{}); err == nil {
		t.Error("wrapResource accepted a resource it cannot wrap faithfully")
	}
}

// bareResource implements cc.Resource and no optional interface.
type bareResource struct{ cc.Resource }

func smallCluster() (*dist.Cluster, error) {
	net := dist.NewNetwork(0, 0, 1)
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{ID: "C0", Network: net})
	if err != nil {
		return nil, err
	}
	pool, err := dist.NewPool(coord)
	if err != nil {
		return nil, err
	}
	var ids []dist.SiteID
	for i := 0; i < 2; i++ {
		s, err := dist.NewSite(dist.SiteConfig{ID: dist.SiteID(fmt.Sprintf("S%d", i)), Network: net, Coordinators: pool.IDs(), WaitTimeout: 5 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		if err := s.AddObject(histories.ObjectID(fmt.Sprintf("a%d", i)), adts.Account(), nil); err != nil {
			return nil, err
		}
		ids = append(ids, s.ID())
	}
	c := dist.NewCluster(net, pool, 0, nil)
	for _, id := range ids {
		if err := c.Join(id); err != nil {
			return nil, err
		}
	}
	return c, c.EnableReplication(2)
}

func TestSelfTime(t *testing.T) {
	// run [0,100) has children [10,40) and [30,60) (overlapping) and a
	// child of a child that must not count against run.
	spans := []span{
		{start: 0, end: 100, parent: noSpan, name: spTxRun},
		{start: 10, end: 40, parent: 0, name: spLockingInvoke},
		{start: 30, end: 60, parent: 0, name: spLockingCommit},
		{start: 12, end: 20, parent: 1, name: spConflictAllowed},
		{start: 70, end: 0, parent: 0, name: spLockingAbort}, // never closed
	}
	st := summarise(spans)
	if got := st.self["tx"]; got != 50 {
		t.Errorf("tx self = %d, want 50", got)
	}
	if got := st.self["locking"]; got != 22+30 {
		t.Errorf("locking self = %d, want 52", got)
	}
	if got := st.self["conflict"]; got != 8 {
		t.Errorf("conflict self = %d, want 8", got)
	}
	if got := len(st.durs[spLockingAbort]); got != 0 {
		t.Errorf("an unclosed span was counted")
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced: each
// must pass its correctness gate, and the traced run must commit what the
// untraced run commits (the same count on a fixed-count workload) and
// reach the same verdict.
func TestSmoke(t *testing.T) {
	tiny := map[string]int{"svc-zipf": 16, "durable-10k": 40, "hot-audit": 4, "cluster-repl": 8}
	for _, base := range workloads {
		w := *base
		w.accounts, w.setups = tiny[w.name], 1
		w.build = builderFor(&w)
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for _, traced := range []bool{false, true} {
				e := &env{seed: 7, seconds: 0.3, work: t.TempDir()}
				rep, err := measure(ctx, &w, e, traced, t.TempDir())
				if err != nil {
					t.Fatalf("traced=%t: %v", traced, err)
				}
				if !rep.Correct || rep.Attempted == 0 {
					t.Fatalf("traced=%t: gate %q, attempted %d, failed %d (%s)", traced, rep.Gate, rep.Attempted, rep.Failed, rep.LastError)
				}
			}
		})
	}
}
