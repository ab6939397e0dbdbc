package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
	"weihl83/internal/locking"
	"weihl83/internal/recovery"
	"weihl83/internal/spec"
	"weihl83/internal/value"
)

// The optional interfaces the runtime type-asserts on the values behind
// the seams. A wrapper that dropped one would run a different program:
// without PendingCalls the write-ahead log records no intentions, without
// SnapshotRead read-any audits take the two-phase-commit path, without
// ParticipantSite(For) prepared votes name no peers, without
// InvalidateConflictCache the conflict engine serves stale verdicts.
type (
	pendingCaller   interface{ PendingCalls(*cc.TxnInfo) []spec.Call }
	snapshotReader  interface{ SnapshotRead() bool }
	siteReporter    interface{ ParticipantSite() string }
	txnSiteReporter interface {
		ParticipantSiteFor(histories.ActivityID) string
	}
	errReporter     interface{ Err() error }
	cacheHolder     interface{ InvalidateConflictCache() }
	stateBasedGuard interface{ StateBased() bool }
)

// optionalIfaces names each optional interface with a test of whether a
// value implements it; wrappers are chosen, and checked by the
// wrapper-fidelity test, by the set a value implements.
var optionalIfaces = []struct {
	name string
	has  func(any) bool
}{
	{"PendingCalls", func(v any) bool { _, ok := v.(pendingCaller); return ok }},
	{"SnapshotRead", func(v any) bool { _, ok := v.(snapshotReader); return ok }},
	{"ParticipantSite", func(v any) bool { _, ok := v.(siteReporter); return ok }},
	{"ParticipantSiteFor", func(v any) bool { _, ok := v.(txnSiteReporter); return ok }},
	{"Err", func(v any) bool { _, ok := v.(errReporter); return ok }},
	{"InvalidateConflictCache", func(v any) bool { _, ok := v.(cacheHolder); return ok }},
	{"StateBased", func(v any) bool { _, ok := v.(stateBasedGuard); return ok }},
}

// ifaceSet lists the optional interfaces v implements, in a fixed order.
func ifaceSet(v any) string {
	var set []byte
	for _, i := range optionalIfaces {
		if i.has(v) {
			set = append(set, i.name...)
			set = append(set, ' ')
		}
	}
	return string(set)
}

// resNames are the span names of one kind of resource.
type resNames struct{ invoke, read, prepare, commit, abort spanName }

var (
	lockingNames = resNames{spLockingInvoke, spLockingInvoke, spLockingPrepare, spLockingCommit, spLockingAbort}
	hybridNames  = resNames{spHybridInvoke, spHybridRead, spHybridPrepare, spHybridCommit, spHybridAbort}
	distNames    = resNames{spDistInvoke, spDistInvoke, spDistPrepare, spDistCommit, spDistAbort}
	replicaNames = resNames{spDistRead, spDistRead, spDistReadEnd, spDistReadEnd, spDistReadEnd}
)

// tracedRes wraps a cc.Resource with a span around every call. Calls of
// transactions the tracer did not sample pass straight through.
type tracedRes struct {
	inner cc.Resource
	tr    *tracer
	obj   *objTrace
	names resNames
}

func (r *tracedRes) ObjectID() histories.ObjectID { return r.inner.ObjectID() }

func (r *tracedRes) Invoke(txn *cc.TxnInfo, inv spec.Invocation) (value.Value, error) {
	parent := r.tr.txnSpan(string(txn.ID))
	if parent == noSpan {
		return r.inner.Invoke(txn, inv)
	}
	name := r.names.invoke
	if txn.ReadOnly {
		name = r.names.read
	}
	s := r.tr.begin(name, parent, txn.Seq)
	r.obj.push(s)
	v, err := r.inner.Invoke(txn, inv)
	r.obj.pop(s)
	r.tr.end(s)
	return v, err
}

func (r *tracedRes) Prepare(txn *cc.TxnInfo) error {
	parent := r.tr.txnSpan(string(txn.ID))
	if parent == noSpan {
		return r.inner.Prepare(txn)
	}
	s := r.tr.begin(r.names.prepare, parent, txn.Seq)
	err := r.inner.Prepare(txn)
	r.tr.end(s)
	return err
}

func (r *tracedRes) Commit(txn *cc.TxnInfo, ts histories.Timestamp) {
	parent := r.tr.txnSpan(string(txn.ID))
	if parent == noSpan {
		r.inner.Commit(txn, ts)
		return
	}
	s := r.tr.begin(r.names.commit, parent, txn.Seq)
	r.inner.Commit(txn, ts)
	r.tr.end(s)
}

func (r *tracedRes) Abort(txn *cc.TxnInfo) {
	parent := r.tr.txnSpan(string(txn.ID))
	if parent == noSpan {
		r.inner.Abort(txn)
		return
	}
	s := r.tr.begin(r.names.abort, parent, txn.Seq)
	r.inner.Abort(txn)
	r.tr.end(s)
}

// The wrapper types below add exactly the optional interfaces of the
// resource kinds the workloads use.

// localRes: locking and hybrid objects (PendingCalls, Err).
type localRes struct{ *tracedRes }

func (r localRes) PendingCalls(txn *cc.TxnInfo) []spec.Call {
	return r.inner.(pendingCaller).PendingCalls(txn)
}
func (r localRes) Err() error { return r.inner.(errReporter).Err() }

// clusterRes: placement-routed cluster proxies (ParticipantSiteFor).
type clusterRes struct{ *tracedRes }

func (r clusterRes) ParticipantSiteFor(txn histories.ActivityID) string {
	return r.inner.(txnSiteReporter).ParticipantSiteFor(txn)
}

// snapshotRes: read-any replica readers (SnapshotRead).
type snapshotRes struct{ *tracedRes }

func (r snapshotRes) SnapshotRead() bool { return r.inner.(snapshotReader).SnapshotRead() }

// wrapResource returns inner behind a tracing wrapper with the same
// optional interfaces. It refuses a resource whose interface set no
// wrapper type reproduces.
func wrapResource(tr *tracer, obj *objTrace, names resNames, inner cc.Resource) (cc.Resource, error) {
	base := &tracedRes{inner: inner, tr: tr, obj: obj, names: names}
	switch set := ifaceSet(inner); set {
	case "PendingCalls Err ":
		return localRes{base}, nil
	case "ParticipantSiteFor ":
		return clusterRes{base}, nil
	case "SnapshotRead ":
		return snapshotRes{base}, nil
	default:
		return nil, fmt.Errorf("no faithful tracing wrapper for %T (optional interfaces: %q)", inner, set)
	}
}

// tracedGuard wraps a locking.Guard with a span around every Allowed call
// made inside a sampled invocation at its object.
type tracedGuard struct {
	inner locking.Guard
	tr    *tracer
	obj   *objTrace
}

func (g *tracedGuard) Allowed(base spec.State, mine []spec.Call, cand spec.Call, others [][]spec.Call) (bool, error) {
	g.tr.allowed.Add(1)
	parent := g.obj.top()
	if parent == noSpan {
		return g.inner.Allowed(base, mine, cand, others)
	}
	s := g.tr.begin(spConflictAllowed, parent, g.tr.spans[parent].id)
	ok, err := g.inner.Allowed(base, mine, cand, others)
	g.tr.end(s)
	return ok, err
}

// engineGuard: the tiered conflict engine (InvalidateConflictCache,
// StateBased).
type engineGuard struct{ *tracedGuard }

func (g engineGuard) InvalidateConflictCache() { g.inner.(cacheHolder).InvalidateConflictCache() }
func (g engineGuard) StateBased() bool         { return g.inner.(stateBasedGuard).StateBased() }

// wrapGuard returns inner behind a tracing wrapper with the same optional
// interfaces.
func wrapGuard(tr *tracer, obj *objTrace, inner locking.Guard) (locking.Guard, error) {
	base := &tracedGuard{inner: inner, tr: tr, obj: obj}
	switch set := ifaceSet(inner); set {
	case "":
		return base, nil
	case "InvalidateConflictCache StateBased ":
		return engineGuard{base}, nil
	default:
		return nil, fmt.Errorf("no faithful tracing wrapper for guard %T (optional interfaces: %q)", inner, set)
	}
}

// tracedBackend wraps a recovery.Backend. AppendBatch — the group-commit
// leader's one forced write per batch — gets one span per record group,
// parented to that group's transaction: every transaction in the batch
// waits for the whole write.
type tracedBackend struct {
	recovery.Backend
	tr *tracer
}

func (b *tracedBackend) AppendBatch(groups [][]recovery.Record) []error {
	b.tr.batches.Add(1)
	b.tr.groups.Add(int64(len(groups)))
	start := b.tr.now()
	errs := b.Backend.AppendBatch(groups)
	end := b.tr.now()
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		if parent := b.tr.txnSpan(string(g[len(g)-1].Txn)); parent != noSpan {
			if s := b.tr.begin(spWALAppendBatch, parent, b.tr.spans[parent].id); s != noSpan {
				b.tr.spans[s].start, b.tr.spans[s].end = start, end
			}
		}
	}
	return errs
}

// tracedHandler wraps the service's http.Handler, parenting each request's
// span to the client round trip that sent it (paired by X-Request-Id).
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := h.tr.takeReq(r.Header.Get("X-Request-Id"))
	if parent == noSpan {
		h.inner.ServeHTTP(w, r)
		return
	}
	s := h.tr.begin(spServiceHandler, parent, h.tr.spans[parent].id)
	defer h.tr.end(s)
	h.inner.ServeHTTP(w, r)
}

// tracedTransport wraps one caller's HTTP transport: a span per round trip
// (one per attempt of a client call), parented to the caller's open
// client.run span.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	run   *int32 // the caller's open client.run span, or noSpan
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := *t.run
	if parent == noSpan {
		return t.inner.RoundTrip(req)
	}
	s := t.tr.begin(spClientRTT, parent, t.tr.spans[parent].id)
	t.tr.bindReq(req.Header.Get("X-Request-Id"), s)
	resp, err := t.inner.RoundTrip(req)
	if err == nil {
		// The round trip ends when the body is read and closed.
		resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.end(s) }}
	} else {
		t.tr.end(s)
	}
	return resp, err
}

// spanBody ends a round-trip span when the client closes the response
// body.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
