package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies a trace event. The vocabulary mirrors the paper's
// history events (initiate, invoke, return, commit, abort) extended with
// the runtime phenomena the formal model abstracts away: conflict waits,
// retryable aborts, backoff sleeps, two-phase-commit phases, fault
// activations and site crash/recovery.
type Kind string

// Trace event kinds.
const (
	// KindInitiate: a transaction began (its initiate event; under static
	// and hybrid atomicity this is where the a-priori timestamp is drawn).
	KindInitiate Kind = "initiate"
	// KindInvoke: an operation invocation entered the system.
	KindInvoke Kind = "invoke"
	// KindReturn: the invocation returned; Dur is its latency.
	KindReturn Kind = "return"
	// KindWait: a conflict wait ended; Dur is the blocked time.
	KindWait Kind = "wait"
	// KindRetry: a transaction aborted retryably; Note is the cause.
	KindRetry Kind = "abort-retryable"
	// KindAbort: a transaction aborted for good; Dur is its lifetime.
	KindAbort Kind = "abort"
	// KindCommit: a transaction committed; Dur is its lifetime.
	KindCommit Kind = "commit"
	// KindPrepare: one resource finished phase one of two-phase commit;
	// Dur is the prepare latency.
	KindPrepare Kind = "prepare"
	// KindDecide: the coordinator reached its durable commit point.
	KindDecide Kind = "decide"
	// KindBackoff: a retry backoff sleep was chosen; Dur is the delay.
	KindBackoff Kind = "backoff"
	// KindFault: an injected fault fired; Note is the fault point.
	KindFault Kind = "fault"
	// KindCrash: a site crashed; Site names it.
	KindCrash Kind = "crash"
	// KindRecover: a site recovered; Site names it.
	KindRecover Kind = "recover"
	// KindResolve: a site settled an in-doubt transaction without its
	// client; Note is the outcome and how it was learned.
	KindResolve Kind = "resolve"
	// KindMigrate: one half of a shard migration at Site; Note is
	// "export" (source frozen and copied) or "adopt" (destination hosts).
	KindMigrate Kind = "migrate"
	// KindDeliver: a replica delivery at follower Site; Note is "seed",
	// "apply" (Dur is the apply latency) or "drop" with the cause.
	KindDeliver Kind = "deliver"
)

// TraceEvent is one entry in the tracer's ring. At is a monotonic offset
// from the tracer's start; Seq is a globally monotonic sequence number, so
// overwritten (dropped) events leave visible gaps.
type TraceEvent struct {
	Seq  uint64        `json:"seq"`
	At   time.Duration `json:"at_ns"`
	Kind Kind          `json:"kind"`
	Txn  string        `json:"txn,omitempty"`
	Obj  string        `json:"obj,omitempty"`
	Site string        `json:"site,omitempty"`
	Note string        `json:"note,omitempty"`
	Dur  time.Duration `json:"dur_ns,omitempty"`
}

// Tracer is a bounded ring buffer of TraceEvents. Writers are lock-free:
// each Record claims a slot by atomic fetch-add and publishes the event
// with an atomic pointer store, so a full ring drops the oldest events
// (the slot is simply overwritten). Disabled, Record costs one atomic
// load. All methods are safe on a nil *Tracer.
type Tracer struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	dropped atomic.Uint64
	start   time.Time
	mask    uint64
	slots   []atomic.Pointer[TraceEvent]
}

// NewTracer returns a disabled tracer whose ring holds capacity events
// (rounded up to a power of two, minimum 16).
func NewTracer(capacity int) *Tracer {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Tracer{
		start: time.Now(),
		mask:  uint64(n - 1),
		slots: make([]atomic.Pointer[TraceEvent], n),
	}
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Enable turns event recording on.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable turns event recording off (the ring's contents remain
// readable).
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Enabled reports whether events are being recorded. Instrumented code
// should gate any work spent building an event (timestamps, string
// formatting) behind this.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// Record appends e to the ring if the tracer is enabled, stamping its
// sequence number and monotonic time. The oldest event is overwritten
// when the ring is full.
func (t *Tracer) Record(e TraceEvent) {
	if !t.Enabled() {
		return
	}
	seq := t.seq.Add(1) - 1
	e.Seq = seq
	e.At = time.Since(t.start)
	if seq > t.mask {
		t.dropped.Add(1)
	}
	t.slots[seq&t.mask].Store(&e)
}

// Events returns the ring's current contents in sequence order. Taken
// while writers are active it is a consistent sample: every returned
// event is complete (published by a single pointer store), sequence
// numbers are strictly increasing, and at most Capacity events return.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	out := make([]TraceEvent, 0, len(t.slots))
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	// Slots are claimed in seq order but the ring wraps (and concurrent
	// publishes land slightly out of order); present the history sorted.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Recorded returns how many events have ever been recorded (including
// overwritten ones).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// reset clears the ring and counters without changing enablement. The
// start time is deliberately left alone: writers read it without
// synchronisation, which is safe only because it never changes after
// NewTracer.
func (t *Tracer) reset() {
	if t == nil {
		return
	}
	for i := range t.slots {
		t.slots[i].Store(nil)
	}
	t.seq.Store(0)
	t.dropped.Store(0)
}
