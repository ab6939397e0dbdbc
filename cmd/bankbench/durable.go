package main

import (
	"fmt"
	"os"
	"time"

	"weihl83/internal/adts"
	"weihl83/internal/histories"
	"weihl83/internal/recovery"
	"weihl83/internal/sim"
	"weihl83/internal/spec"
)

// durable measures what durability costs and what it buys: the same
// transfer workload committed through the in-memory WAL model (no I/O,
// the chaos-harness default) and through the file-backed segmented WAL
// (real fsync-batched group commit), across an object-count ladder. Each
// row reports commit throughput and the time to recover committed state
// from the log afterwards — for the file backend that is a cold reopen:
// scan segments, trim any torn tail, replay. The committed
// BENCH_durable.json pins the numbers; `make bench-durable` guards them.
func durable(sc scale) bool {
	fmt.Fprintln(tout, "\nDURABLE — commit throughput and recovery time: in-memory vs file WAL")
	fmt.Fprintf(tout, "%-14s %8s %12s %12s %12s %12s\n",
		"backend", "objects", "commit/s", "xfer/s", "retry/commit", "recovery")
	okAll := true
	for _, objects := range []int{10, 100, 1000, 10000, 100000} {
		for bi, backend := range []string{"mem", "file"} {
			p := sim.BankParams{
				Accounts:           objects,
				InitialBalance:     1_000_000,
				TransferWorkers:    sc.workers,
				TransfersPerWorker: sc.transfers,
				Amount:             1,
				Seed:               42,
			}
			// The in-memory backend commits orders of magnitude faster, so
			// the same transfer count finishes in single-digit milliseconds
			// and scheduler noise dominates; give it a proportionally larger
			// workload for a stable measurement. Rows are keyed by
			// (backend, objects), so the two backends need not share a
			// workload size.
			if backend == "mem" {
				p.TransfersPerWorker *= 20
			}
			var best *sim.Metrics
			var bestCps float64
			var bestRecovery time.Duration
			for rep := 0; rep < hotRepeat; rep++ {
				m, cps, rec, ok := durableRun(backend, objects, p)
				okAll = okAll && ok
				if m == nil {
					continue
				}
				if best == nil || cps > bestCps {
					best, bestCps, bestRecovery = m, cps, rec
				}
			}
			if best == nil {
				continue
			}
			fmt.Fprintf(tout, "%-14s %8d %12.0f %12.0f %12.3f %12v\n",
				"durable-"+backend, objects, bestCps, best.TransferThroughput(),
				best.TransferAbortRate(), bestRecovery.Round(time.Microsecond))
			if jsonDoc != nil {
				record("durable", sim.KindCommut,
					map[string]int64{"backend": int64(bi), "objects": int64(objects)}, best)
				row := &jsonDoc.Rows[len(jsonDoc.Rows)-1]
				row.Kind = "durable-" + backend
				row.CommitsPerSec = bestCps
				row.RecoveryNS = int64(bestRecovery)
			}
		}
	}
	return okAll
}

// durableRun executes one workload repetition on the chosen backend and
// then measures recovery from the log it produced.
func durableRun(backend string, objects int, p sim.BankParams) (*sim.Metrics, float64, time.Duration, bool) {
	specs := accountSpecs(objects)
	var disk recovery.Backend
	var dir string
	switch backend {
	case "mem":
		disk = &recovery.Disk{}
	case "file":
		var err error
		dir, err = os.MkdirTemp("", "bankbench-durable-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bankbench:", err)
			return nil, 0, 0, false
		}
		defer os.RemoveAll(dir)
		w, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: dir, Specs: specs})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bankbench:", err)
			return nil, 0, 0, false
		}
		disk = w
	}
	sys, err := sim.NewSystem(sim.Config{Kind: sim.KindCommut, WAL: disk}, objects, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bankbench:", err)
		return nil, 0, 0, false
	}
	m, err := sim.RunBank(sys, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bankbench: durable %s: %v\n", backend, err)
		return m, 0, 0, false
	}
	// Stats counts lifetime commits including the per-account seeding
	// transactions, which run before the measured wall starts (and would
	// dominate at the 10k-object rung); subtract them to rate only the
	// measured workload.
	commits, _ := sys.Manager.Stats()
	commits -= int64(objects)
	cps := float64(0)
	if m.Wall > 0 {
		cps = float64(commits) / m.Wall.Seconds()
	}

	// Recovery: for the file backend, a cold restart — close, reopen the
	// directory (segment scan + torn-tail handling), replay. The in-memory
	// model can only replay its live records.
	var rec time.Duration
	if backend == "file" {
		w := disk.(*recovery.FileWAL)
		if err := w.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bankbench:", err)
			return m, cps, 0, false
		}
		start := time.Now()
		w2, err := recovery.OpenFileWAL(recovery.FileWALOptions{Dir: dir, Specs: specs})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bankbench: reopen:", err)
			return m, cps, 0, false
		}
		if _, err := recovery.Restart(w2, specs); err != nil {
			fmt.Fprintln(os.Stderr, "bankbench: restart:", err)
			w2.Close()
			return m, cps, 0, false
		}
		rec = time.Since(start)
		w2.Close()
	} else {
		start := time.Now()
		if _, err := recovery.Restart(disk, specs); err != nil {
			fmt.Fprintln(os.Stderr, "bankbench: restart:", err)
			return m, cps, 0, false
		}
		rec = time.Since(start)
	}
	return m, cps, rec, true
}

// accountSpecs is the spec table for the bank workload's account objects.
func accountSpecs(n int) map[histories.ObjectID]spec.SerialSpec {
	specs := make(map[histories.ObjectID]spec.SerialSpec, n)
	for i := 0; i < n; i++ {
		specs[histories.ObjectID(fmt.Sprintf("acct%d", i))] = adts.AccountSpec{}
	}
	return specs
}
