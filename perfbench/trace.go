package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanName names a span: "<layer>.<call>". The layer is the part before
// the first dot.
type spanName uint8

const (
	spClientRun spanName = iota
	spClientRTT
	spServiceHandler
	spTxRun
	spLockingInvoke
	spLockingPrepare
	spLockingCommit
	spLockingAbort
	spHybridInvoke
	spHybridRead
	spHybridPrepare
	spHybridCommit
	spHybridAbort
	spConflictAllowed
	spWALAppendBatch
	spDistInvoke
	spDistPrepare
	spDistCommit
	spDistAbort
	spDistRead
	spDistReadEnd
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spClientRun:       "client.run",
	spClientRTT:       "client.rtt",
	spServiceHandler:  "service.handler",
	spTxRun:           "tx.run",
	spLockingInvoke:   "locking.invoke",
	spLockingPrepare:  "locking.prepare",
	spLockingCommit:   "locking.commit",
	spLockingAbort:    "locking.abort",
	spHybridInvoke:    "hybridcc.invoke",
	spHybridRead:      "hybridcc.snapshot_read",
	spHybridPrepare:   "hybridcc.prepare",
	spHybridCommit:    "hybridcc.commit",
	spHybridAbort:     "hybridcc.abort",
	spConflictAllowed: "conflict.allowed",
	spWALAppendBatch:  "wal.append_batch",
	spDistInvoke:      "dist.invoke",
	spDistPrepare:     "dist.prepare",
	spDistCommit:      "dist.commit",
	spDistAbort:       "dist.abort",
	spDistRead:        "dist.read",
	spDistReadEnd:     "dist.read_release",
}

func (n spanName) String() string { return spanNames[n] }

// layer names the layer a span's self time belongs to. A client round
// trip's self time — the round trip minus the server handler inside it —
// is the HTTP transport: connection, kernel, and wire.
func (n spanName) layer() string {
	if n == spClientRTT {
		return "transport"
	}
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// layers lists every layer a span's self time can belong to, in report
// order.
var layers = []string{"client", "transport", "service", "tx", "locking", "hybridcc", "conflict", "wal", "dist"}

// span is one call across a layer seam. Times are nanoseconds since the
// tracer's epoch; parent is the index of the enclosing span, or -1.
type span struct {
	start, end int64
	id         int64
	parent     int32
	name       spanName
}

// noSpan is the index of no span: the call was not sampled or the buffer
// was full.
const noSpan int32 = -1

// tracer records spans in a fixed in-memory buffer and writes them out
// when the run ends. Slots are claimed with one atomic add, so recording
// takes no lock. Only every every-th transaction is traced (sampled
// transactions are traced in full); a call whose transaction is not
// sampled passes straight through.
type tracer struct {
	epoch   time.Time
	every   int64
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	txns map[string]int32 // activity id -> its tx.run span
	reqs map[string]int32 // X-Request-Id -> its client.rtt span

	// Call counters at the seams, counted for every call, sampled or not.
	allowed atomic.Int64 // Guard.Allowed calls
	batches atomic.Int64 // Backend.AppendBatch calls
	groups  atomic.Int64 // commit-record groups in those batches
}

// spanCap bounds the span buffer (about 20 MB).
const spanCap = 1 << 19

func newTracer(every int) *tracer {
	return &tracer{
		epoch: time.Now(),
		every: int64(max(every, 1)),
		spans: make([]span, spanCap),
		txns:  make(map[string]int32),
		reqs:  make(map[string]int32),
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// sampled reports whether the seq-th transaction of a caller is traced.
func (tr *tracer) sampled(seq int64) bool { return seq%tr.every == 0 }

// begin opens a span and returns its index, or noSpan when the buffer is
// full.
func (tr *tracer) begin(name spanName, parent int32, id int64) int32 {
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.spans)) {
		tr.dropped.Add(1)
		return noSpan
	}
	tr.spans[i] = span{start: tr.now(), id: id, parent: parent, name: name}
	return int32(i)
}

// end closes span i (a no-op for noSpan).
func (tr *tracer) end(i int32) {
	if i != noSpan {
		tr.spans[i].end = tr.now()
	}
}

// bindTxn makes span the parent of every call made on behalf of the
// activity txn.
func (tr *tracer) bindTxn(txn string, span int32) {
	tr.mu.Lock()
	tr.txns[txn] = span
	tr.mu.Unlock()
}

func (tr *tracer) unbindTxn(txn string) {
	tr.mu.Lock()
	delete(tr.txns, txn)
	tr.mu.Unlock()
}

// txnSpan returns the span bound to txn, or noSpan.
func (tr *tracer) txnSpan(txn string) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s, ok := tr.txns[txn]; ok {
		return s
	}
	return noSpan
}

// bindReq and takeReq pair a request's client round trip with the server
// handler that served it, by X-Request-Id.
func (tr *tracer) bindReq(id string, span int32) {
	tr.mu.Lock()
	tr.reqs[id] = span
	tr.mu.Unlock()
}

func (tr *tracer) takeReq(id string) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s, ok := tr.reqs[id]
	if !ok {
		return noSpan
	}
	delete(tr.reqs, id)
	return s
}

// recorded returns the span buffer up to the last claimed slot. Spans
// still open (end 0) are skipped by summarise.
func (tr *tracer) recorded() []span {
	return tr.spans[:min(tr.next.Load(), int64(len(tr.spans)))]
}

// objTrace is the open-invocation stack of one object, shared between the
// object's resource wrapper and its guard wrapper: a guard check has no
// transaction argument, so its parent is the innermost open invocation at
// the same object.
type objTrace struct {
	mu   sync.Mutex
	open []int32
}

func (o *objTrace) push(i int32) {
	o.mu.Lock()
	o.open = append(o.open, i)
	o.mu.Unlock()
}

func (o *objTrace) pop(i int32) {
	o.mu.Lock()
	if k := slices.Index(o.open, i); k >= 0 {
		o.open = slices.Delete(o.open, k, k+1)
	}
	o.mu.Unlock()
}

func (o *objTrace) top() int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.open) == 0 {
		return noSpan
	}
	return o.open[len(o.open)-1]
}

// spanStats summarises closed spans: call durations by span name, self
// time (a span's duration minus the part of it its children cover) summed
// by layer, and the network share of each client round trip (round trip
// minus the server handler that served it).
type spanStats struct {
	durs      map[spanName]samples
	self      map[string]int64
	transport samples
}

func summarise(spans []span) spanStats {
	st := spanStats{durs: map[spanName]samples{}, self: map[string]int64{}}
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		st.durs[s.name] = append(st.durs[s.name], s.end-s.start)
		if p := s.parent; p != noSpan && spans[p].end != 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		st.self[s.name.layer()] += s.end - s.start - covered(s, spans, children[i])
		if s.name == spClientRTT {
			t := s.end - s.start
			for _, k := range children[i] {
				t -= spans[k].end - spans[k].start
			}
			st.transport = append(st.transport, t)
		}
	}
	return st
}

// covered returns how much of s's interval the union of its children's
// intervals (clipped to s) covers.
func covered(s span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for k, v := range iv {
		if k == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans dumps spans as CSV (name,start_ns,end_ns,parent,id).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,start_ns,end_ns,parent,id")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.name, s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
