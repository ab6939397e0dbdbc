package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"weihl83/internal/obs"
)

// env is what one invocation gives its workload: the seed, --seconds
// (which sizes the load), and a scratch directory for write-ahead logs.
type env struct {
	seed    int64
	seconds float64
	work    string
	dirs    int
}

// newDir returns a fresh directory path under the scratch directory.
func (e *env) newDir() string {
	e.dirs++
	return filepath.Join(e.work, fmt.Sprintf("wal-%d", e.dirs))
}

// workload is one traffic mix over a fixed-size bank.
type workload struct {
	name     string
	accounts int
	mix      mix
	// perSecond fixes the measured load at perSecond × --seconds
	// transactions, about --seconds of load on the machine the benchmark
	// was sized on. A count and not a duration, so every commit measured
	// does the same work: the log a run leaves behind has the same length
	// and the memory the program retains per transaction adds up to the
	// same total, however fast the machine ran that day.
	perSecond int
	// setups is how many times an untraced run sets the workload up;
	// setup_s is the median of the least-stolen set-ups.
	setups int
	// coldStart, when set, makes setup_s the time of a cold start from
	// the write-ahead log the load left behind: a pass sets the workload
	// up once, and its finish cold-starts setups times.
	coldStart bool
	// traceEvery samples every n-th transaction of each caller for spans.
	traceEvery int
	// build sets one instance up, ready for load. tr is nil in untraced
	// passes; a traced instance puts a wrapper behind every seam.
	build func(ctx context.Context, e *env, tr *tracer, r *result) (instance, error)
}

// instance is one set-up system under load.
type instance interface {
	exec(ctx context.Context, c *caller, o op) error
	// finish runs after the load: it checks the workload's correctness
	// gate and records end-of-run figures (recovery, drain) in r.
	finish(ctx context.Context, l *ledger, r *result) error
	close()
}

// result is what one pass measured.
type result struct {
	setup      timings // fresh set-ups
	coldStart  timings // cold starts from the log (coldStart workloads)
	restarts   int     // cold starts finish should time
	wall       time.Duration
	attempted  int64
	failed     int64
	committed  int64
	transfers  int64 // committed transfers (non-commuting updates)
	lastErr    error
	upd, rd    lat // latencies of committed transactions
	quiet      quiet
	peakRSS    float64 // peak resident set during the load, MB
	rss        float64 // resident set after the load, garbage returned, MB
	counters   map[string]int64
	hists      map[string]obs.HistogramSnapshot
	goAlloc    float64 // heap bytes allocated over the window
	goAllocs   float64 // heap objects allocated over the window
	goGCs      float64 // GC cycles over the window
	traceCalls struct{ allowed, batches, groups int64 }
	figures    map[string][]float64 // workload-specific timings and sizes
	gate       error
}

// timings are repeated timings of one step, in seconds, with the CPU
// time the machine had stolen during each.
type timings struct{ secs, stolen []float64 }

// time runs f and, when it succeeds, records how long it took.
func (t *timings) time(f func() error) error {
	_, s0 := readCPU()
	t0 := time.Now()
	if err := f(); err != nil {
		return err
	}
	d := time.Since(t0).Seconds()
	_, s1 := readCPU()
	t.secs = append(t.secs, d)
	t.stolen = append(t.stolen, s1-s0)
	return nil
}

// quiet is the median of the least-stolen timings (see leastStolen) and
// how many those are; zeros when nothing was timed.
func (t *timings) quiet() (float64, int) {
	if len(t.secs) == 0 {
		return 0, 0
	}
	var kept []float64
	for i, k := range leastStolen(t.stolen) {
		if k {
			kept = append(kept, t.secs[i])
		}
	}
	return median(kept), len(kept)
}

func (r *result) figure(name string, v float64) { r.figures[name] = append(r.figures[name], v) }

// fig returns the median of a recorded figure (0 when absent).
func (r *result) fig(name string) float64 {
	if len(r.figures[name]) == 0 {
		return 0
	}
	return median(r.figures[name])
}

func (r *result) tps() float64 { return ratio(float64(r.committed), r.wall.Seconds()) }

func (r *result) counter(name string) float64 { return float64(r.counters[name]) }

// histMean is an obs histogram's exact mean over the window (sum/count),
// in microseconds.
func (r *result) histMean(name string) float64 {
	h := r.hists[name]
	return ratio(float64(h.Sum), float64(h.Count)) / 1e3
}

// plan turns the workload's sizing and --seconds into a load plan, with a
// twentieth of it again as warm-up.
func (w *workload) plan(e *env) plan {
	n := max(int64(float64(w.perSecond)*e.seconds), 1)
	return plan{warmN: max(n/20, 10), n: n}
}

// pass sets the workload up setups times (keeping the last instance),
// runs the closed loop on it, and checks its gate. A coldStart workload
// is set up once and cold-started setups times by its finish.
func (w *workload) pass(ctx context.Context, e *env, tr *tracer, setups int) (*result, error) {
	r := &result{figures: map[string][]float64{}}
	if w.coldStart {
		r.restarts, setups = setups, 1
	}
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		err := r.setup.time(func() (err error) {
			inst, err = w.build(ctx, e, tr, r)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()

	cs := newCallers(w, e.seed)
	// Set-up garbage is returned to the OS and the resident-set peak
	// restarted, so peak_rss_mb is the load's own; the set-up's file
	// writes and deletions are flushed, so the load's fsyncs do not pay
	// for them.
	debug.FreeOSMemory()
	resetPeakRSS()
	syscall.Sync()
	// Counters are read when the measured window opens, so their deltas
	// cover the measured transactions and not the warm-up.
	var (
		before   obs.Snapshot
		goBefore [3]float64
	)
	open := func() {
		before, goBefore = obs.Default.Snapshot(false), readGo()
		if tr != nil {
			tr.allowed.Store(0)
			tr.batches.Store(0)
			tr.groups.Store(0)
		}
	}
	from, to, cpu, err := drive(ctx, cs, w.plan(e), open, func(c *caller, o op) error { return inst.exec(ctx, c, o) })
	after, goAfter := obs.Default.Snapshot(false), readGo()
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	r.peakRSS = peakRSSMB()
	if tr != nil {
		r.traceCalls.allowed, r.traceCalls.batches, r.traceCalls.groups = tr.allowed.Load(), tr.batches.Load(), tr.groups.Load()
	}
	r.wall = to - from
	r.quiet = quietest(cs, cpu, from, to)
	r.goAlloc, r.goAllocs, r.goGCs = goAfter[0]-goBefore[0], goAfter[1]-goBefore[1], goAfter[2]-goBefore[2]
	r.counters = map[string]int64{}
	for k, v := range after.Counters {
		r.counters[k] = v - before.Counters[k]
	}
	r.hists = map[string]obs.HistogramSnapshot{}
	for k, h := range after.Histograms {
		r.hists[k] = h.DeltaSince(before.Histograms[k])
	}
	var upd, rd samples
	for _, c := range cs {
		r.attempted += c.attempted
		r.failed += c.failed
		r.transfers += c.transfers
		upd = append(upd, c.upd...)
		rd = append(rd, c.rd...)
		if c.lastErr != nil {
			r.lastErr = c.lastErr
		}
	}
	r.committed = r.attempted - r.failed
	r.upd, r.rd = summary(upd.sorted(), -1), summary(rd.sorted(), -1)
	// The latency samples grow with throughput, so they are released
	// before the resident set is read: rss_mb is the program's.
	upd, rd = nil, nil
	for _, c := range cs {
		c.upd, c.updT, c.rd, c.rdT = nil, nil, nil, nil
	}
	debug.FreeOSMemory()
	r.rss = statusMB("VmRSS")
	r.gate = inst.finish(ctx, merge(cs), r)
	return r, nil
}

var goMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

// readGo samples the Go runtime's allocation and GC counters.
func readGo() [3]float64 {
	s := make([]metrics.Sample, len(goMetrics))
	for i, n := range goMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// measure runs one invocation: the untraced pass and, for a traced run,
// the traced pass after it.
func measure(ctx context.Context, w *workload, e *env, traced bool, reports string) (*report, error) {
	if !traced {
		base, err := w.pass(ctx, e, nil, w.setups)
		if err != nil {
			return nil, err
		}
		return endToEnd(w, base), nil
	}
	// The span buffer exists before the untraced pass, so both passes run
	// with the same live heap and so the same garbage-collection pace: the
	// overhead compares tracing with no tracing, not two heap sizes.
	tr := newTracer(w.traceEvery)
	base, err := w.pass(ctx, e, nil, 1)
	if err != nil {
		return nil, err
	}
	tp, err := w.pass(ctx, e, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	spans := tr.recorded()
	if err := os.MkdirAll(reports, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(reports, fmt.Sprintf("%s-seed%d.spans.csv", w.name, e.seed)), spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return perLayer(w, base, tp, tr, summarise(spans)), nil
}
