// Command perfbench is the repository's benchmark: it drives each layer of
// the transaction stack through its public functions from outside the
// program, with two closed-loop callers, checks that the outputs are
// correct, and prints every metric by name with its unit. See README.md.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload hot-audit --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced and reports the per-layer metrics and the
// tracing overhead. Diagnostics and run metadata go to standard error, and
// a full report (sample counts included) to .bench_build/reports/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// deadline bounds one invocation: a run that has not finished by then is a
// hang, and the process exits with an error instead of a result.
const deadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: fixes every caller's operation sequence")
	seconds := fs.Float64("seconds", 8, "load size: each workload runs its rate × seconds measured transactions")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out := filepath.Join(root, ".bench_build")
	e := &env{seed: *seed, seconds: *seconds, work: filepath.Join(out, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(e.work)

	md := metadata(w, e, *trace == 1)
	fmt.Fprintln(stderr, "perfbench:", md)
	hang := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish within %v\n", w.name, deadline)
		os.RemoveAll(e.work)
		os.Exit(3)
	})
	defer hang.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	rep, err := measure(ctx, w, e, *trace == 1, filepath.Join(out, "reports"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.Meta = md
	rep.log(stderr)
	if err := rep.save(filepath.Join(out, "reports"), *trace); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing report:", err)
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metricJSON{}}
	if rep.Correct {
		for _, m := range rep.Metrics {
			if m.reported {
				line.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !rep.Correct {
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
