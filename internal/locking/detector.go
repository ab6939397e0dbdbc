package locking

import (
	"sync"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
)

// Detector is the global waits-for-graph deadlock detector. Objects report
// "transaction W is waiting for holders H₁…Hₙ"; the detector looks for a
// cycle through the new edges and, if it finds one, dooms the youngest
// transaction in the cycle (the one with the largest birth sequence
// number). Doomed transactions are woken via the wake hooks the objects
// register and observe their fate through Doomed.
type Detector struct {
	mu     sync.Mutex
	waits  map[histories.ActivityID]map[histories.ActivityID]bool
	seq    map[histories.ActivityID]int64
	doomed map[histories.ActivityID]error
	wakes  []func(histories.ActivityID)
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{
		waits:  make(map[histories.ActivityID]map[histories.ActivityID]bool),
		seq:    make(map[histories.ActivityID]int64),
		doomed: make(map[histories.ActivityID]error),
	}
}

// RegisterWake adds a hook the detector calls (outside its lock) with each
// doomed transaction's id. The object hosting that transaction's blocked
// wait wakes exactly that waiter; every other object's hook is a cheap map
// miss, so one deadlock victim never wakes every blocked transaction.
func (d *Detector) RegisterWake(f func(histories.ActivityID)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wakes = append(d.wakes, f)
}

// Register announces a transaction and its birth sequence number.
func (d *Detector) Register(txn histories.ActivityID, seq int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq[txn] = seq
}

// Forget removes all record of a finished transaction.
func (d *Detector) Forget(txn histories.ActivityID) {
	d.mu.Lock()
	delete(d.waits, txn)
	delete(d.seq, txn)
	delete(d.doomed, txn)
	d.mu.Unlock()
}

// Doomed returns the abort reason assigned to txn, or nil.
func (d *Detector) Doomed(txn histories.ActivityID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.doomed[txn]
}

// Doom marks txn for abort with the given reason (e.g. a user-initiated
// abort of a blocked transaction) and wakes its waiter.
func (d *Detector) Doom(txn histories.ActivityID, reason error) {
	d.mu.Lock()
	if d.doomed[txn] == nil {
		d.doomed[txn] = reason
	}
	wakes := append([]func(histories.ActivityID){}, d.wakes...)
	d.mu.Unlock()
	fire(wakes, []histories.ActivityID{txn})
}

// fire runs the wake hooks for each doomed transaction. Callers run it
// outside d.mu: hooks re-acquire object locks.
func fire(wakes []func(histories.ActivityID), doomed []histories.ActivityID) {
	for _, txn := range doomed {
		for _, f := range wakes {
			f(txn)
		}
	}
}

// SetWaiting records that waiter is blocked on holders, runs cycle
// detection, and returns the waiter's doom reason if the waiter itself is
// (or became) doomed. Victim selection dooms the youngest transaction on
// the detected cycle; if that victim is not the waiter, the waiter keeps
// waiting (the victim is woken by its wake hook).
func (d *Detector) SetWaiting(waiter histories.ActivityID, holders []histories.ActivityID) error {
	d.mu.Lock()
	set := make(map[histories.ActivityID]bool, len(holders))
	for _, h := range holders {
		if h != waiter {
			set[h] = true
		}
	}
	d.waits[waiter] = set

	var doomedNow []histories.ActivityID
	for {
		cycle := d.findCycle(waiter)
		if cycle == nil {
			break
		}
		victim := cycle[0]
		for _, t := range cycle[1:] {
			if d.seq[t] > d.seq[victim] {
				victim = t
			}
		}
		d.doomed[victim] = cc.ErrDeadlock
		// A doomed transaction no longer waits; removing its edges breaks
		// the cycle so detection can continue for any remaining cycles.
		delete(d.waits, victim)
		doomedNow = append(doomedNow, victim)
	}
	err := d.doomed[waiter]
	wakes := append([]func(histories.ActivityID){}, d.wakes...)
	d.mu.Unlock()

	if len(doomedNow) > 0 {
		fire(wakes, doomedNow)
	}
	return err
}

// ClearWaiting records that waiter is no longer blocked.
func (d *Detector) ClearWaiting(waiter histories.ActivityID) {
	d.mu.Lock()
	delete(d.waits, waiter)
	d.mu.Unlock()
}

// findCycle returns some cycle reachable from start in the waits-for
// graph, or nil. Doomed transactions are skipped: they no longer hold their
// claims against progress once aborted.
func (d *Detector) findCycle(start histories.ActivityID) []histories.ActivityID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[histories.ActivityID]int)
	var stack []histories.ActivityID
	var cycle []histories.ActivityID

	var dfs func(n histories.ActivityID) bool
	dfs = func(n histories.ActivityID) bool {
		color[n] = gray
		stack = append(stack, n)
		for m := range d.waits[n] {
			if d.doomed[m] != nil {
				continue
			}
			switch color[m] {
			case white:
				if dfs(m) {
					return true
				}
			case gray:
				// Extract the cycle from the stack.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == m {
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[n] = black
		return false
	}
	if dfs(start) {
		return cycle
	}
	return nil
}
