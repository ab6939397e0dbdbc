package main

import (
	"cmp"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Steal is time a virtual CPU was ready to run but the hypervisor ran
// another guest. On the shared 2-vCPU machine the benchmark was built on
// it came and went between 0.2% and 60% of the CPU time the load wanted,
// in bursts of tens of milliseconds, and a run's throughput and tail
// latencies tracked it closely: a stolen vCPU stalls whatever holds a lock
// or a prepared update, and every caller behind it waits. So the
// end-to-end figures come from the quiet part of the measured window.
// The window is cut into slices of sliceWidth; the tenth of the slices
// with the least stolen time — and every other slice stolen no more than
// the tenth mark, so a quiet run keeps nearly all of them — are pooled,
// and throughput and percentiles are computed over the transactions that
// completed in them. Slices are ranked by the stolen time itself, not by
// its share of busy time: a slice in which the program stalls on its own
// (a lock wait, a backoff, an fsync) is busy less, and ranking by share
// would drop the program's own tail preferentially. Where steal cannot be
// read, every slice counts.
const sliceWidth = 100 * time.Millisecond

// quiet holds the figures of the quiet slices.
type quiet struct {
	tps            float64
	upd, rd        lat // p99 from tail
	slices, kept   int
	steal, stealIn float64 // steal share over all slices, and over the kept ones
}

// leastStolen marks the intervals to keep, given each one's stolen time:
// the tenth with the least, and every other stolen no more than that.
func leastStolen(stolen []float64) []bool {
	mark := slices.Clone(stolen)
	slices.Sort(mark)
	limit := mark[(len(mark)-1)/10]
	keep := make([]bool, len(stolen))
	for i, v := range stolen {
		keep[i] = v <= limit
	}
	return keep
}

// quietest pools the transactions that completed in the least-stolen
// slices of [from, to).
func quietest(cs []*caller, cpu []cpuSample, from, to time.Duration) quiet {
	n := max(int((to-from)/sliceWidth), 1)
	width := (to - from) / time.Duration(n)
	stolen := make([]float64, n)
	for i := range stolen {
		a, b := cpuAt(cpu, from+width*time.Duration(i)), cpuAt(cpu, from+width*time.Duration(i+1))
		stolen[i] = b.steal - a.steal
	}
	keep := leastStolen(stolen)
	q := quiet{slices: n, steal: stealShare(cpuAt(cpu, from), cpuAt(cpu, to))}
	var kept cpuSample
	for i, k := range keep {
		if k {
			q.kept++
			a, b := cpuAt(cpu, from+width*time.Duration(i)), cpuAt(cpu, from+width*time.Duration(i+1))
			kept.busy += b.busy - a.busy
			kept.steal += b.steal - a.steal
		}
	}
	q.stealIn = stealShare(cpuSample{}, kept)
	slice := func(t int64) int { return min(max(int((time.Duration(t)-from)/width), 0), n-1) }
	var upd, rd []timed
	for _, c := range cs {
		for i, t := range c.updT {
			if keep[slice(t)] {
				upd = append(upd, timed{t, c.upd[i]})
			}
		}
		for i, t := range c.rdT {
			if keep[slice(t)] {
				rd = append(rd, timed{t, c.rd[i]})
			}
		}
	}
	q.upd, q.rd = summary(tail(upd)), summary(tail(rd))
	q.tps = ratio(float64(q.upd.n+q.rd.n), (width * time.Duration(q.kept)).Seconds())
	return q
}

// timed is a latency sample with its completion time.
type timed struct{ at, lat int64 }

// tailChunks is how many consecutive chunks tail cuts the samples into.
const tailChunks = 10

// tail returns the latencies of xs sorted, and their p99 taken as the
// median of the p99s of tailChunks consecutive chunks of xs in completion
// order. A burst of outside noise (a shared disk's slow fsyncs, a stolen
// slice the selection missed) then moves the p99 of one chunk and not the
// figure, while a tail the program has throughout moves every chunk.
func tail(xs []timed) (samples, int64) {
	slices.SortFunc(xs, func(a, b timed) int { return cmp.Compare(a.at, b.at) })
	all := make(samples, len(xs))
	for i, x := range xs {
		all[i] = x.lat
	}
	if len(xs) < tailChunks*100 {
		all = all.sorted()
		return all, quantile(all, 990)
	}
	p99s := make([]float64, tailChunks)
	for k := range p99s {
		p99s[k] = float64(quantile(all[k*len(all)/tailChunks:(k+1)*len(all)/tailChunks].sorted(), 990))
	}
	return all.sorted(), int64(median(p99s))
}

// cpuAt is the last sample taken at or before offset t.
func cpuAt(cpu []cpuSample, t time.Duration) cpuSample {
	k := max(sort.Search(len(cpu), func(i int) bool { return cpu[i].at > t })-1, 0)
	return cpu[k]
}

// stealShare is the share of the CPU time the machine's vCPUs wanted
// between two samples that was stolen. Idle time is left out: an idle
// vCPU is never stolen from.
func stealShare(a, b cpuSample) float64 { return ratio(b.steal-a.steal, b.busy-a.busy) }

// cpuSample is the machine's cumulative busy and stolen CPU time at an
// offset from the load's start.
type cpuSample struct {
	at          time.Duration
	busy, steal float64
}

// readCPU returns the machine's cumulative busy time (user, nice, system,
// irq, softirq and steal) and stolen time from /proc/stat, in ticks;
// zeros where it is missing.
func readCPU() (busy, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		n, _ := strconv.ParseFloat(v, 64)
		if i != 3 && i != 4 {
			busy += n
		}
		if i == 7 {
			steal = n
		}
	}
	return busy, steal
}
