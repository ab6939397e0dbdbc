package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number. Percentiles carry their sample count.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// reported marks the metrics of the result line; the rest go to the
	// report file only.
	reported bool
}

// report is everything one invocation found.
type report struct {
	Meta      runMeta  `json:"meta"`
	Correct   bool     `json:"correct"`
	Gate      string   `json:"gate"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	LastError string   `json:"last_error,omitempty"`
	Metrics   []metric `json:"metrics"`
}

func (rep *report) add(name string, v float64, unit string, samples int, reported bool) {
	rep.Metrics = append(rep.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples, reported: reported})
}

// pct adds the p50 and p99 of samples (in microseconds) as name_p50_us and
// name_p99_us.
func (rep *report) pct(name string, d samples, reported bool) {
	rep.lat(name, summary(d, -1), reported)
}

// lat adds a latency summary's p50 and p99 (in microseconds) as
// name_p50_us and name_p99_us.
func (rep *report) lat(name string, l lat, reported bool) {
	rep.add(name+"_p50_us", us(l.p50), "us", l.n, reported)
	rep.add(name+"_p99_us", us(l.p99), "us", l.n, reported)
}

// verdict fills the correctness fields from a pass: it passed its gate
// and no transaction failed.
func (rep *report) verdict(r *result) {
	rep.Attempted, rep.Failed = r.attempted, r.failed
	if r.lastErr != nil {
		rep.LastError = r.lastErr.Error()
	}
	rep.Correct, rep.Gate = gateOf(r)
}

func gateOf(r *result) (bool, string) {
	switch {
	case r.gate != nil:
		return false, r.gate.Error()
	case r.failed > 0:
		return false, fmt.Sprintf("%d of %d transactions failed", r.failed, r.attempted)
	}
	return true, "pass"
}

// endToEnd reports the metrics a user of the system sees. setup_s is the
// median of the least-stolen set-ups, or of the least-stolen cold starts
// from the log on a workload whose system starts from its log.
func endToEnd(w *workload, r *result) *report {
	rep := &report{}
	rep.verdict(r)
	setup := &r.setup
	if w.coldStart {
		setup = &r.coldStart
	}
	v, n := setup.quiet()
	rep.add("setup_s", v, "s", n, true)
	rep.add("setup.timed", float64(len(setup.secs)), "count", 0, false)
	if w.coldStart {
		v, n := r.setup.quiet()
		rep.add("fresh_setup_s", v, "s", n, false)
	}
	q := r.quiet
	rep.add("txn_per_s", q.tps, "1/s", q.upd.n+q.rd.n, true)
	rep.lat("update", q.upd, true)
	rep.lat("read", q.rd, true)
	rep.add("quiet.update_pooled_p99_us", us(q.upd.pooledP99), "us", q.upd.n, false)
	rep.add("quiet.read_pooled_p99_us", us(q.rd.pooledP99), "us", q.rd.n, false)
	rep.add("rss_mb", r.rss, "MB", 0, true)
	rep.add("peak_rss_mb", r.peakRSS, "MB", 0, false)
	rep.add("quiet.slices_kept", float64(q.kept), "count", q.slices, false)
	rep.add("quiet.steal_frac", q.stealIn, "frac", 0, false)
	rep.add("window.steal_frac", q.steal, "frac", 0, false)
	// The same figures over the whole window, for comparison.
	rep.add("window.txn_per_s", r.tps(), "1/s", int(r.committed), false)
	rep.lat("window.update", r.upd, false)
	rep.lat("window.read", r.rd, false)
	rep.add("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "frac", int(r.attempted), false)
	for _, f := range []struct{ name, unit string }{
		{"disk_bytes_per_txn", "B"}, {"repl.drain_s", "s"}, {"setup.register_s", "s"},
	} {
		if len(r.figures[f.name]) > 0 {
			rep.add(f.name, r.fig(f.name), f.unit, len(r.figures[f.name]), false)
		}
	}
	return rep
}

// perLayer reports the traced run: per-layer metrics from the traced pass
// (spans, seam call counts, the program's own counters), Go runtime costs
// from the untraced pass, and the tracing overhead between the two.
func perLayer(w *workload, base, tp *result, tr *tracer, st spanStats) *report {
	rep := &report{}
	rep.verdict(tp)
	if ok, gate := gateOf(base); !ok {
		rep.Correct, rep.Gate = false, "untraced pass: "+gate
	} else if base.committed != tp.committed {
		rep.Correct = false
		rep.Gate = fmt.Sprintf("traced pass committed %d transactions, untraced %d", tp.committed, base.committed)
	}
	txns := float64(tp.committed)
	per := func(n float64) float64 { return ratio(n, txns) }
	c := tp.counter

	// Service and client (svc-zipf).
	rep.add("client.rtt_p50_us", us(quantile(st.durs[spClientRTT].sorted(), 500)), "us", len(st.durs[spClientRTT]), true)
	rep.pct("service.handler", st.durs[spServiceHandler].sorted(), true)
	rep.add("service.transport_p50_us", us(quantile(st.transport.sorted(), 500)), "us", len(st.transport), true)
	rep.add("service.exec_mean_us", tp.histMean("svc.tx.latency_ns"), "us", int(tp.hists["svc.tx.latency_ns"].Count), true)
	rep.add("service.queue_wait_mean_us", tp.histMean("svc.queue.wait_ns"), "us", int(tp.hists["svc.queue.wait_ns"].Count), true)
	rep.add("service.shed_frac", ratio(c("svc.shed.queue"), c("svc.http.requests")), "frac", 0, true)
	rep.add("client.retries_per_txn", per(c("svc.client.retries")), "count", 0, true)

	// Concurrency control (hot-audit, durable-10k, svc-zipf server side).
	rep.pct("conflict.allowed", st.durs[spConflictAllowed].sorted(), true)
	rep.add("conflict.checks_per_txn", per(float64(tp.traceCalls.allowed)), "count", 0, true)
	hits, misses := c("cc.conflict.cache.hits"), c("cc.conflict.cache.misses")
	rep.add("conflict.cache_hit_ratio", ratio(hits, hits+misses), "frac", 0, true)
	// A hybrid object serves updates straight from its inner locking
	// object, so its update invocations count as locking invocations too.
	rep.pct("locking.invoke", joined(st, spLockingInvoke, spHybridInvoke), true)
	rep.pct("hybridcc.invoke", joined(st, spHybridInvoke, spHybridRead), true)
	rep.add("hybridcc.snapshot_read_p99_us", us(quantile(st.durs[spHybridRead].sorted(), 990)), "us", len(st.durs[spHybridRead]), true)
	rep.add("locking.wait_mean_us", tp.histMean("locking.wait_ns"), "us", int(tp.hists["locking.wait_ns"].Count), true)
	rep.add("locking.waits_per_txn", per(c("cc.locking.conflicts")), "count", 0, true)
	rep.add("hybridcc.versions_mean", ratio(float64(tp.hists["hybrid.versions"].Sum), float64(tp.hists["hybrid.versions"].Count)), "count", 0, true)
	rep.add("ccrt.seq_waits_per_commit", ratio(c("ccrt.seq.waits"), c("tx.commit")), "count", 0, true)
	rep.add("tx.attempts_per_commit", ratio(c("tx.begin"), c("tx.commit")), "count", 0, true)
	runs := len(st.durs[spTxRun]) + len(st.durs[spClientRun])
	for _, l := range layers {
		rep.add(l+".self_us_per_txn", ratio(us(st.self[l]), float64(runs)), "us", runs, true)
	}

	// Go runtime, from the untraced pass: the spans allocate too.
	bt := float64(base.committed)
	rep.add("go.alloc_bytes_per_txn", ratio(base.goAlloc, bt), "B", 0, true)
	rep.add("go.allocs_per_txn", ratio(base.goAllocs, bt), "count", 0, true)
	rep.add("go.gc_cycles_per_ktxn", ratio(1000*base.goGCs, bt), "count", 0, true)

	// Write-ahead log (durable-10k).
	rep.pct("wal.append_batch", st.durs[spWALAppendBatch].sorted(), true)
	rep.add("wal.groups_per_batch", ratio(float64(tp.traceCalls.groups), float64(tp.traceCalls.batches)), "count", 0, true)
	rep.add("wal.fsyncs_per_commit", ratio(c("wal.fsync.count"), c("tx.commit")), "count", 0, true)
	rep.add("wal.append_bytes_per_txn", per(c("wal.append.bytes")), "B", 0, true)
	rep.add("wal.disk_bytes_per_txn", base.fig("disk_bytes_per_txn"), "B", 0, true)
	rep.add("setup.register_s", tp.fig("setup.register_s"), "s", 0, true)
	rep.add("recovery.open_s", tp.fig("recovery.open_s"), "s", 0, true)
	rep.add("recovery.replay_s", tp.fig("recovery.replay_s"), "s", 0, true)
	rep.add("recovery.register_s", tp.fig("recovery.register_s"), "s", 0, true)
	cold, _ := tp.coldStart.quiet()
	rep.add("recovery.total_s", cold, "s", 0, true)

	// Cluster (cluster-repl).
	rep.add("dist.invoke_p50_us", us(quantile(st.durs[spDistInvoke].sorted(), 500)), "us", len(st.durs[spDistInvoke]), true)
	rep.add("dist.prepare_mean_us", tp.histMean("dist.2pc.prepare_ns"), "us", int(tp.hists["dist.2pc.prepare_ns"].Count), true)
	rep.add("dist.commit_mean_us", tp.histMean("dist.2pc.commit_ns"), "us", int(tp.hists["dist.2pc.commit_ns"].Count), true)
	rep.add("dist.rpc_calls_per_txn", per(c("dist.rpc.calls")), "count", 0, true)
	rep.add("dist.rpc_retransmits_per_txn", per(c("dist.rpc.retransmits")), "count", 0, true)
	rep.add("repl.deliveries_per_commit", ratio(c("dist.repl.deliveries"), c("tx.commit")), "count", 0, true)
	rep.add("repl.drains_per_noncommut", ratio(c("dist.repl.drains"), float64(tp.transfers)), "count", 0, true)
	rep.add("repl.drain_s", tp.fig("repl.drain_s"), "s", 0, true)

	// Tracing itself.
	// Both throughputs come from the quiet slices, as txn_per_s does, so
	// the overhead is not a difference in stolen time between the passes.
	rep.add("trace.overhead_frac", 1-ratio(tp.quiet.tps, base.quiet.tps), "frac", 0, true)
	rep.add("trace.untraced_txn_per_s", base.quiet.tps, "1/s", base.quiet.upd.n+base.quiet.rd.n, false)
	rep.add("trace.traced_txn_per_s", tp.quiet.tps, "1/s", tp.quiet.upd.n+tp.quiet.rd.n, false)
	rep.add("trace.spans", float64(len(tr.recorded())), "count", 0, false)
	rep.add("trace.dropped_spans", float64(tr.dropped.Load()), "count", 0, false)
	return rep
}

// joined merges the durations of several span names.
func joined(st spanStats, names ...spanName) samples {
	var d samples
	for _, n := range names {
		d = append(d, st.durs[n]...)
	}
	return d.sorted()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (Linux;
// a no-op where /proc/self/clear_refs is missing, leaving the peak since
// process start).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// statusMB is a memory figure of /proc/self/status (VmRSS, VmHWM) in
// megabytes; 0 where it is missing.
func statusMB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if kb, ok := strings.CutPrefix(line, field+":"); ok {
			if n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 64); err == nil {
				return n / 1024
			}
		}
	}
	return 0
}

// peakRSSMB is the resident-set high-water mark in megabytes: VmHWM, or
// the process's peak from getrusage.
func peakRSSMB() float64 {
	if mb := statusMB("VmHWM"); mb > 0 {
		return mb
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runMeta records what a run ran on and with.
type runMeta struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Commit      string  `json:"commit"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Callers     int     `json:"callers"`
	WALFS       string  `json:"wal_filesystem"`
	FlushPolicy string  `json:"flush_policy"`
}

func (m runMeta) String() string {
	return fmt.Sprintf("workload=%s seed=%d seconds=%g traced=%t commit=%s nproc=%d gomaxprocs=%d go=%s callers=%d wal_fs=%s flush=%q",
		m.Workload, m.Seed, m.Seconds, m.Traced, m.Commit, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Callers, m.WALFS, m.FlushPolicy)
}

func metadata(w *workload, e *env, traced bool) runMeta {
	return runMeta{
		Workload:    w.name,
		Seed:        e.seed,
		Seconds:     e.seconds,
		Traced:      traced,
		Commit:      commit(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Callers:     callers,
		WALFS:       filesystem(e.work),
		FlushPolicy: "one fsync per group-commit batch",
	}
}

// commit is the source revision the binary was built from, when the build
// saw version control.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// log prints the report to w for a human.
func (rep *report) log(w io.Writer) {
	fmt.Fprintf(w, "perfbench: gate=%s attempted=%d failed=%d\n", rep.Gate, rep.Attempted, rep.Failed)
	if rep.LastError != "" {
		fmt.Fprintf(w, "perfbench: last error: %s\n", rep.LastError)
	}
	for _, m := range rep.Metrics {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
}

// save writes the report as JSON under dir.
func (rep *report) save(dir string, trace int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Meta.Workload, rep.Meta.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
