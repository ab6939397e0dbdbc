package service

import (
	"fmt"
	"sync"
	"time"

	"weihl83"
	"weihl83/internal/obs"
)

// TenantOptions are the resolved (non-wire) per-tenant settings a lazily
// created tenant starts from; TenantConfig overrides them per tenant.
type TenantOptions struct {
	// Property selects the tenant's local atomicity property (default
	// Dynamic).
	Property weihl83.Property
	// Guard selects the default conflict granularity of the tenant's
	// objects, including GuardCascade (default GuardCommut).
	Guard weihl83.Guard
	// AutoCreate, when non-empty, names the ADT with which operations on
	// unknown objects lazily create them ("" refuses unknown objects).
	AutoCreate string
	// Record enables history recording for offline checking.
	Record bool
	// MaxRetries bounds server-side automatic retries per transaction
	// (default 25 — the network client owns the long retry budget).
	MaxRetries int
	// MaxInFlight bounds the tenant's concurrently executing transactions
	// (default Options.MaxInFlight).
	MaxInFlight int
	// WaitTimeout replaces deadlock detection with bounded waits.
	WaitTimeout time.Duration
	// Backoff paces server-side retries.
	Backoff weihl83.Backoff
	// ReadRouter, when set, reroutes the tenant's read-only transactions to
	// replica snapshot readers (a cluster-backed deployment plugs
	// dist.Cluster.ReadRouter in here). Not settable over the wire.
	ReadRouter weihl83.ReadRouter
}

// tenant is one namespace: a private System, its object set, an in-flight
// bound, and its obs instruments. Tenants are created lazily on first use
// and never destroyed (the System owns live protocol state).
type tenant struct {
	name string
	opts TenantOptions
	sys  *weihl83.System

	// mu guards object creation; the manager's object registry is safe
	// for concurrent use, so creation is safe while transactions run.
	mu      sync.Mutex
	objects map[string]bool

	// Durable tenants (Options.DataDir set) additionally carry their data
	// directory, the file-backed WAL, and the persisted object catalog
	// (the WAL records effects; the catalog records which objects exist
	// and how they were configured, so a restart can rebuild the set).
	dir     string
	wal     *weihl83.FileWAL
	catalog []catalogEntry

	// inflight bounds concurrently executing transactions: acquiring a
	// slot is admission, waiting for one is the queue.
	inflight chan struct{}

	// Per-tenant observability, resolved once at creation. Metric names
	// are scoped svc.tenant.<name>.* so /v1/metrics?tenant= can cut one
	// tenant's view out of the process-wide registry.
	committed *obs.Counter
	failed    *obs.Counter
	shed      *obs.Counter
	latency   *obs.Histogram
}

// propertyNames maps wire property names onto the library's constants.
var propertyNames = map[string]weihl83.Property{
	"":        0, // caller keeps the default
	"dynamic": weihl83.Dynamic,
	"static":  weihl83.Static,
	"hybrid":  weihl83.Hybrid,
}

// guardNames maps wire guard names onto the library's constants.
var guardNames = map[string]weihl83.Guard{
	"":         0, // caller keeps the default
	"rw":       weihl83.GuardRW,
	"nameonly": weihl83.GuardNameOnly,
	"commut":   weihl83.GuardCommut,
	"escrow":   weihl83.GuardEscrow,
	"exact":    weihl83.GuardExact,
	"cascade":  weihl83.GuardCascade,
}

// adtNames maps wire type names onto the built-in ADT constructors.
var adtNames = map[string]func() weihl83.ADT{
	"account":   weihl83.Account,
	"counter":   weihl83.Counter,
	"intset":    weihl83.IntSet,
	"queue":     weihl83.Queue,
	"semiqueue": weihl83.SemiQueue,
	"register":  weihl83.Register,
	"directory": weihl83.Directory,
	// seatmap needs a size; 64 seats covers the reservation scenarios the
	// harness drives.
	"seatmap": func() weihl83.ADT { return weihl83.SeatMap(64) },
}

// resolveTenantOptions applies a wire TenantConfig over the server default.
func resolveTenantOptions(def TenantOptions, cfg TenantConfig) (TenantOptions, error) {
	out := def
	p, ok := propertyNames[cfg.Property]
	if !ok {
		return out, fmt.Errorf("unknown property %q", cfg.Property)
	}
	if p != 0 {
		out.Property = p
	}
	g, ok := guardNames[cfg.Guard]
	if !ok {
		return out, fmt.Errorf("unknown guard %q", cfg.Guard)
	}
	if g != 0 {
		out.Guard = g
	}
	if cfg.AutoCreate != "" {
		if _, ok := adtNames[cfg.AutoCreate]; !ok {
			return out, fmt.Errorf("unknown type %q", cfg.AutoCreate)
		}
		out.AutoCreate = cfg.AutoCreate
	}
	if cfg.Record {
		out.Record = true
	}
	if cfg.MaxRetries > 0 {
		out.MaxRetries = cfg.MaxRetries
	}
	if cfg.MaxInFlight > 0 {
		out.MaxInFlight = cfg.MaxInFlight
	}
	return out, nil
}

// ResolveTenantOptions resolves a wire TenantConfig against the service's
// built-in defaults: the server's flag surface and the /v1/tenants
// endpoint share one vocabulary.
func ResolveTenantOptions(cfg TenantConfig) (TenantOptions, error) {
	var o Options
	(&o).fill()
	return resolveTenantOptions(o.DefaultTenant, cfg)
}

// sameTenantOptions compares the fields TenantConfig can set (Backoff
// holds a func field, so TenantOptions is not ==-comparable).
func sameTenantOptions(a, b TenantOptions) bool {
	return a.Property == b.Property &&
		a.Guard == b.Guard &&
		a.AutoCreate == b.AutoCreate &&
		a.Record == b.Record &&
		a.MaxRetries == b.MaxRetries &&
		a.MaxInFlight == b.MaxInFlight
}

// newTenant builds the tenant's private System; with dataDir set the
// System runs on a file-backed WAL under dataDir/<name> and recovers any
// catalogued objects and their committed state.
func newTenant(name string, opts TenantOptions, dataDir string) (*tenant, error) {
	prefix := "svc.tenant." + name + "."
	tn := &tenant{
		name:      name,
		opts:      opts,
		objects:   make(map[string]bool),
		inflight:  make(chan struct{}, opts.MaxInFlight),
		committed: obs.Default.Counter(prefix + "committed"),
		failed:    obs.Default.Counter(prefix + "failed"),
		shed:      obs.Default.Counter(prefix + "shed"),
		latency:   obs.Default.Histogram(prefix + "latency_ns"),
	}
	if dataDir != "" {
		if err := tn.openDurable(dataDir); err != nil {
			return nil, err
		}
		return tn, nil
	}
	sys, err := weihl83.NewSystem(weihl83.Options{
		Property:    opts.Property,
		Record:      opts.Record,
		WaitTimeout: opts.WaitTimeout,
		MaxRetries:  opts.MaxRetries,
		Backoff:     opts.Backoff,
		ReadRouter:  opts.ReadRouter,
	})
	if err != nil {
		return nil, err
	}
	tn.sys = sys
	return tn, nil
}

// close releases the tenant's file-backed WAL (no-op for in-memory
// tenants; idempotent).
func (tn *tenant) close() {
	if tn.wal != nil {
		_ = tn.wal.Close()
	}
}

// addObject creates one object (idempotent for identical repeats: creating
// an existing object reports success without touching it).
func (tn *tenant) addObject(id, typeName, guardName string) error {
	mk, ok := adtNames[typeName]
	if !ok {
		return fmt.Errorf("unknown type %q", typeName)
	}
	guard := tn.opts.Guard
	if guardName != "" {
		g, ok := guardNames[guardName]
		if !ok {
			return fmt.Errorf("unknown guard %q", guardName)
		}
		if g != 0 {
			guard = g
		}
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if tn.objects[id] {
		return nil
	}
	// Durable tenants persist the catalog entry BEFORE creating the
	// object: a crash between the two leaves a catalogued object that the
	// next open creates empty, which is exactly what the client asked for.
	// The reverse order could commit effects to an object a restart does
	// not know how to rebuild.
	if tn.wal != nil {
		entry := catalogEntry{ID: id, Type: typeName, Guard: guardWire[guard]}
		if err := writeCatalog(tn.dir, append(tn.catalog, entry)); err != nil {
			return fmt.Errorf("persisting catalog: %w", err)
		}
		tn.catalog = append(tn.catalog, entry)
	}
	if err := tn.sys.AddObject(weihl83.ObjectID(id), mk(), weihl83.WithGuard(guard)); err != nil {
		return err
	}
	tn.objects[id] = true
	return nil
}

// ensure lazily creates an unknown object with the tenant's AutoCreate
// type; with auto-creation disabled an unknown object is the transaction's
// problem (ErrNoResource at Invoke).
func (tn *tenant) ensure(id string) error {
	if tn.opts.AutoCreate == "" {
		return nil
	}
	tn.mu.Lock()
	known := tn.objects[id]
	tn.mu.Unlock()
	if known {
		return nil
	}
	return tn.addObject(id, tn.opts.AutoCreate, "")
}
