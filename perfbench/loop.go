package main

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// callers is the number of closed-loop callers: one per core of the
// two-core machine the benchmark was sized on. Each waits for its
// transaction to finish before it issues the next.
const callers = 2

// caller is one closed-loop caller: its operation stream, its latency
// samples (measured window only), and a ledger of the balance changes its
// committed transactions made.
type caller struct {
	idx       int
	next      func() op
	upd, rd   samples // latencies of committed measured transactions
	updT, rdT samples // their completion times, as offsets from the load's start
	attempted int64   // measured transactions
	failed    int64   // measured transactions that did not commit
	transfers int64   // measured transfers that committed
	errs      int64   // transactions that did not commit, warm-up included
	lastErr   error
	delta     []int64 // committed balance change per account
	deposited int64   // committed deposits (money entering the system)
	seq       int64   // transactions issued, warm-up included
	measuring bool    // the current transaction is in the measured window
}

func newCallers(w *workload, seed int64) []*caller {
	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = &caller{idx: i, next: w.mix(callerRand(seed, i), w.accounts), delta: make([]int64, w.accounts)}
	}
	return cs
}

// record books one finished transaction.
func (c *caller) record(o op, err error, lat, done time.Duration, measured bool) {
	if err != nil {
		c.errs++
		c.lastErr = err
	}
	if measured {
		c.attempted++
		if err != nil {
			c.failed++
		} else if o.update() {
			if o.kind == opTransfer {
				c.transfers++
			}
			c.upd = append(c.upd, int64(lat))
			c.updT = append(c.updT, int64(done))
		} else {
			c.rd = append(c.rd, int64(lat))
			c.rdT = append(c.rdT, int64(done))
		}
	}
	if err != nil {
		return
	}
	switch o.kind {
	case opTransfer:
		c.delta[o.a] -= o.amt
		c.delta[o.b] += o.amt
	case opDeposit:
		c.delta[o.a] += o.amt
		c.deposited += o.amt
	}
}

// ledger merges the callers' books: the balance every account must hold.
type ledger struct {
	delta     []int64
	deposited int64
	failed    int64 // transactions that did not commit, warm-up included
}

func merge(cs []*caller) *ledger {
	l := &ledger{delta: make([]int64, len(cs[0].delta))}
	for _, c := range cs {
		for i, d := range c.delta {
			l.delta[i] += d
		}
		l.deposited += c.deposited
		l.failed += c.errs
	}
	return l
}

func (l *ledger) want(i int) int64 { return seedBalance + l.delta[i] }
func (l *ledger) total() int64     { return seedBalance*int64(len(l.delta)) + l.deposited }

// plan fixes how much load runs: n measured transactions after warmN
// unmeasured ones.
type plan struct{ warmN, n int64 }

// drive runs the closed loop: every caller executes its operations one
// at a time until the plan is met. open is called once, by the first
// caller to issue a measured transaction, before it issues it. drive
// returns the measured window as offsets from the load's start
// (completion times are on the same clock) and the machine's CPU counters
// sampled every 25ms through the load.
func drive(ctx context.Context, cs []*caller, p plan, open func(), exec func(c *caller, o op) error) (from, to time.Duration, cpu []cpuSample, err error) {
	var (
		wg      sync.WaitGroup
		opened  sync.Once
		claimed atomic.Int64 // transactions handed out
		// The measured window runs from start to the last measured
		// completion, both as offsets from t0 on the monotonic clock.
		start atomic.Int64
		last  = make([]time.Duration, len(cs))
	)
	t0 := time.Now()
	sample := func() {
		busy, steal := readCPU()
		cpu = append(cpu, cpuSample{at: time.Since(t0), busy: busy, steal: steal})
	}
	sample()
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	start.Store(-1)
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for ctx.Err() == nil {
				k := claimed.Add(1) - 1
				if k >= p.warmN+p.n {
					return
				}
				measured := k >= p.warmN
				if k == p.warmN {
					start.Store(int64(time.Since(t0)))
				}
				if measured {
					opened.Do(open)
				}
				o := c.next()
				c.seq++
				c.measuring = measured
				t := time.Now()
				err := exec(c, o)
				now := time.Now()
				done := now.Sub(t0)
				c.record(o, err, now.Sub(t), done, measured)
				if measured {
					last[c.idx] = done
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	if err := ctx.Err(); err != nil {
		return 0, 0, nil, err
	}
	end := slices.Max(last)
	if start.Load() < 0 || end == 0 {
		return 0, 0, nil, errors.New("no transaction finished inside the measured window")
	}
	return time.Duration(start.Load()), end, cpu, nil
}
