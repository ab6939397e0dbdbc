package recovery

import (
	"fmt"
	"sync"

	"weihl83/internal/cc"
	"weihl83/internal/fault"
	"weihl83/internal/histories"
	"weihl83/internal/obs"
	"weihl83/internal/spec"
)

// Observability for stable storage. Byte counts are an estimate of the
// serialized record size (the model keeps records in memory), good enough
// to compare logging volume across runs.
var (
	obsWALAppends        = obs.Default.Counter("wal.appends")
	obsWALBytes          = obs.Default.Counter("wal.append.bytes")
	obsWALFailed         = obs.Default.Counter("wal.append.failed")
	obsWALBatchSize      = obs.Default.Histogram("wal.append.batch_size")
	obsWALTorn           = obs.Default.Counter("wal.append.torn")
	obsCheckpoints       = obs.Default.Counter("wal.checkpoints")
	obsCheckpointTorn    = obs.Default.Counter("wal.checkpoint.torn")
	obsCheckpointReclaim = obs.Default.Counter("wal.checkpoint.reclaimed_bytes")
)

// recordBytes estimates a record's serialized size: a fixed header plus
// per-call, per-state and per-decision overheads.
func recordBytes(r Record) int64 {
	return 64 + 48*int64(len(r.Calls)) + 96*int64(len(r.States)) + 24*int64(len(r.Decided)) + 16*int64(len(r.Hosted)) + 16*int64(len(r.ReplicaTS))
}

// RecordKind discriminates write-ahead-log records.
type RecordKind int

// Log record kinds. A transaction's intentions are forced to the log at
// prepare; the commit record is the atomic commit point; installation of
// the intentions into the object states is redone idempotently at restart.
// A checkpoint record snapshots the committed states (and the committed
// transaction ids) so the log prefix it summarises can be compacted away.
const (
	RecordIntentions RecordKind = iota + 1
	RecordCommit
	RecordAbort
	RecordInstalled
	RecordCheckpoint
)

// MigrateDir marks an intentions record as one half of a transactional
// shard migration: Out at the object's old home (commit drops hosting), In
// at its new home (commit adopts the copied state as the object's
// committed baseline and takes over hosting). A migration is an ordinary
// transaction — its halves prepare, force intentions, and resolve through
// the same 2PC/termination protocol as any other — so a crash mid-move
// recovers or presumed-aborts with the object still singly-homed.
type MigrateDir int

// Migration directions for Record.Migrate.
const (
	MigrateNone MigrateDir = iota
	MigrateOut
	MigrateIn
	// ReplicaIn marks a replica-group record at a follower site: a seed
	// (States set) adopts the shipped baseline as the follower's committed
	// copy, a delivery (Calls set) replays the shipped calls onto it.
	// Unlike MigrateIn, ReplicaIn never touches hosting — the leader stays
	// the object's single home and the follower only serves snapshot
	// reads. Each ReplicaIn intentions record is paired with its own
	// commit record (the follower's local WAL protocol), so an
	// uncommitted delivery vanishes at restart and bounded-retry
	// redelivery re-logs it; restart's in-doubt resolution must skip
	// these records — they are not transaction halves and have no
	// coordinator to consult.
	ReplicaIn
)

// Record is one entry in the write-ahead log.
type Record struct {
	Kind   RecordKind
	Txn    histories.ActivityID
	Object histories.ObjectID // RecordIntentions and RecordInstalled
	Calls  []spec.Call        // RecordIntentions
	TS     histories.Timestamp
	// Migrate marks a migration half (RecordIntentions): Out at the old
	// home, In at the new. A committed MigrateIn adopts States[Object] as
	// the object's committed baseline; a committed MigrateOut removes the
	// object from the site's committed state.
	Migrate MigrateDir
	// RingV is the placement version the migration installs when it
	// commits (RecordIntentions with Migrate set).
	RingV uint64
	// Torn marks a record whose append failed partway: only a prefix of
	// its calls reached stable storage. Restart discards torn records,
	// modelling checksum-validated log entries.
	Torn bool
	// Participants names the transaction's participant sites
	// (RecordIntentions, distributed mode): the peers an in-doubt
	// recovery polls during cooperative termination.
	Participants []string
	// States is a checkpoint's committed-state snapshot, one immutable
	// spec.State per object (RecordCheckpoint).
	States map[histories.ObjectID]spec.State
	// Decided is a checkpoint's set of transactions with a durable commit
	// outcome (RecordCheckpoint). Compaction drops their commit records,
	// so peer-outcome queries answer from here instead. Aborted
	// transactions are deliberately absent: presumed abort makes their
	// records forgettable.
	Decided map[histories.ActivityID]bool
	// Hosted is a checkpoint's hosting snapshot (RecordCheckpoint, sites
	// with migration support): which objects the site was home to at
	// checkpoint time. Compaction drops committed migration records, so
	// hosting must be re-derivable from the checkpoint alone. Nil on
	// checkpoints taken without hosting awareness.
	Hosted map[histories.ObjectID]bool
	// ReplicaTS is a checkpoint's replica watermark (RecordCheckpoint):
	// per object, the highest delivery timestamp among the committed
	// ReplicaIn records the checkpoint's States snapshot folds in.
	// Compaction drops those records, so a recovering follower derives
	// its snapshot-read floor from here — reads below the floor would
	// silently include later effects already merged into the baseline.
	ReplicaTS map[histories.ObjectID]histories.Timestamp
}

// clone deep-copies a record so callers can never alias the live log.
func (r Record) clone() Record {
	cp := r
	cp.Calls = append([]spec.Call(nil), r.Calls...)
	if r.Participants != nil {
		cp.Participants = append([]string(nil), r.Participants...)
	}
	if r.States != nil {
		cp.States = make(map[histories.ObjectID]spec.State, len(r.States))
		for id, st := range r.States {
			cp.States[id] = st // spec.State is immutable
		}
	}
	if r.Decided != nil {
		cp.Decided = make(map[histories.ActivityID]bool, len(r.Decided))
		for txn, v := range r.Decided {
			cp.Decided[txn] = v
		}
	}
	if r.Hosted != nil {
		cp.Hosted = make(map[histories.ObjectID]bool, len(r.Hosted))
		for id, v := range r.Hosted {
			cp.Hosted[id] = v
		}
	}
	if r.ReplicaTS != nil {
		cp.ReplicaTS = make(map[histories.ObjectID]histories.Timestamp, len(r.ReplicaTS))
		for id, ts := range r.ReplicaTS {
			cp.ReplicaTS[id] = ts
		}
	}
	return cp
}

// ErrWriteFailed reports a failed stable-storage append. It wraps
// cc.ErrUnavailable: a transaction whose log write fails must abort but may
// be retried.
var ErrWriteFailed = fmt.Errorf("recovery: stable-storage write failed: %w", cc.ErrUnavailable)

// Disk is the stable-storage abstraction: everything appended survives a
// Crash; nothing else does. It is safe for concurrent use. An attached
// fault injector can make appends fail or tear (fault.DiskAppendFail,
// fault.DiskAppendTorn).
type Disk struct {
	mu      sync.Mutex
	records []Record
	inj     *fault.Injector
}

// SetInjector attaches a fault injector (nil detaches).
func (d *Disk) SetInjector(in *fault.Injector) {
	d.mu.Lock()
	d.inj = in
	d.mu.Unlock()
}

// Append durably appends a record. A torn append writes a checksummed-away
// prefix of the record's calls and reports failure; a failed append writes
// nothing. Either way the caller must treat the record as not logged.
func (d *Disk) Append(r Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(r)
}

// appendLocked is Append under d.mu: one record, with the torn/failed
// fault points applied.
func (d *Disk) appendLocked(r Record) error {
	cp := r.clone()
	if len(cp.Calls) > 0 && d.inj.Fires(fault.DiskAppendTorn) {
		torn := cp
		torn.Calls = cp.Calls[:len(cp.Calls)/2]
		torn.Torn = true
		d.records = append(d.records, torn)
		obsWALTorn.Inc()
		return fmt.Errorf("%w: torn append of %s record for %s", ErrWriteFailed, "intentions", r.Txn)
	}
	if d.inj.Fires(fault.DiskAppendFail) {
		obsWALFailed.Inc()
		return fmt.Errorf("%w: append for %s", ErrWriteFailed, r.Txn)
	}
	d.records = append(d.records, cp)
	obsWALAppends.Inc()
	obsWALBytes.Add(recordBytes(cp))
	return nil
}

// AppendBatch appends several transactions' record groups under one
// stable-storage acquisition — the group-commit entry point: a commit
// leader hands in one group per follower (that transaction's intentions
// records followed by its commit record) and the whole batch goes to disk
// as one forced write.
//
// Fault semantics are exactly those of per-group sequences of Append: the
// torn/failed fault points are applied to every record individually, and a
// fault inside group i fails group i alone — its earlier records stay in
// the log without a commit record, precisely the state a solo committer
// would leave, so Restart ignores them — while later groups still append.
// errs[i] is nil iff group i's records are all durably logged.
func (d *Disk) AppendBatch(groups [][]Record) (errs []error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	errs = make([]error, len(groups))
	obsWALBatchSize.Observe(int64(len(groups)))
	for i, group := range groups {
		for _, r := range group {
			if err := d.appendLocked(r); err != nil {
				errs[i] = err
				break
			}
		}
	}
	return errs
}

// Records returns a deep-copied snapshot of the log: mutating a returned
// record's Calls cannot alias the live log.
func (d *Disk) Records() []Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Record, len(d.records))
	for i := range d.records {
		out[i] = d.records[i].clone()
	}
	return out
}

// Len returns the number of records.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.records)
}

// Restart rebuilds the committed state of every object from the log alone,
// replaying the intentions of committed transactions in intentions order —
// the redo pass of intentions-list recovery. Transactions with no commit
// record (active or aborted at the crash) contribute nothing, which is
// exactly the recoverability half of atomicity: they appear never to have
// run. Torn records fail their checksum and are discarded. A non-torn
// checkpoint record resets the replay to its snapshot, so a compacted log
// replays as checkpoint + suffix; a torn checkpoint is skipped and the
// replay falls back to the records themselves.
//
// Intentions order — not commit-record order — is the order that matches
// the recorded results. A commit record can land in the log long after the
// decision it witnesses: a site tolerates a failed commit-record append
// (the coordinator's log holds the outcome) and the record is re-created
// later by the cooperative termination protocol, after transactions that
// live ran after this one. Intentions positions are immune to that drift,
// and they respect every result dependency: under the locking protocols a
// transaction only observes another's effects once it has committed, so a
// dependent transaction's intentions are always logged after the
// transaction it depends on; concurrently-prepared transactions hold
// non-conflicting locks, whose recorded results replay validly in either
// order.
func Restart(d Backend, specs map[histories.ObjectID]spec.SerialSpec) (map[histories.ObjectID]spec.State, error) {
	return replay(d.Records(), specs)
}

// RestartHosted is Restart for sites that host a moving set of objects: it
// additionally rebuilds which objects the site is home to. initialHosted
// names the objects the site was seeded with (before any migration); nil
// means every object in specs. Committed migrate-in records take hosting
// (and adopt the copied state baseline), committed migrate-out records
// drop it, and a checkpoint's Hosted snapshot re-bases the derivation the
// way its States snapshot re-bases state replay.
func RestartHosted(d Backend, specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (map[histories.ObjectID]spec.State, map[histories.ObjectID]bool, error) {
	return replayHosted(d.Records(), specs, initialHosted)
}

// replay is Restart's core over an explicit record sequence.
func replay(recs []Record, specs map[histories.ObjectID]spec.SerialSpec) (map[histories.ObjectID]spec.State, error) {
	states, _, err := replayHosted(recs, specs, nil)
	return states, err
}

// replayHosted is the replay core, also deriving hosting.
func replayHosted(recs []Record, specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (map[histories.ObjectID]spec.State, map[histories.ObjectID]bool, error) {
	states := make(map[histories.ObjectID]spec.State, len(specs))
	for id, s := range specs {
		states[id] = s.Init()
	}
	hosted := make(map[histories.ObjectID]bool, len(specs))
	if initialHosted == nil {
		for id := range specs {
			hosted[id] = true
		}
	} else {
		for id, h := range initialHosted {
			hosted[id] = h
		}
	}
	// Pass 1: every transaction's durable fate. A commit record or a
	// checkpoint Decided entry wins over an abort record: a durable commit
	// is irrevocable, and duplicate outcome records (handler racing the
	// in-doubt resolver) are benign.
	committed := make(map[histories.ActivityID]bool)
	intentions := 0
	for _, r := range recs {
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordIntentions:
			intentions++
		case RecordCommit:
			committed[r.Txn] = true
		case RecordCheckpoint:
			for txn := range r.Decided {
				committed[txn] = true
			}
		}
	}
	// Pass 2: redo committed intentions at their own log positions, each
	// (transaction, object) pair at most once.
	type txnObject struct {
		txn histories.ActivityID
		obj histories.ObjectID
	}
	applied := make(map[txnObject]bool, intentions)
	for _, r := range recs {
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordIntentions:
			key := txnObject{r.Txn, r.Object}
			if !committed[r.Txn] || applied[key] {
				continue
			}
			switch r.Migrate {
			case MigrateIn:
				// The committed migration made the copied baseline this
				// site's committed state for the object and took hosting.
				// Client intentions on the object at this site are always
				// logged after the migrate-in they depend on, so position
				// order replays them onto the adopted baseline.
				if st, ok := r.States[r.Object]; ok {
					states[r.Object] = st
				}
				hosted[r.Object] = true
				applied[key] = true
				continue
			case MigrateOut:
				// The object left this site: its committed state lives at
				// the new home now.
				delete(states, r.Object)
				hosted[r.Object] = false
				applied[key] = true
				continue
			case ReplicaIn:
				// Replica-group record at a follower. A seed adopts the
				// shipped baseline; a delivery falls through to ordinary
				// call replay onto it. Hosting is untouched either way —
				// the follower's copy is a read replica, not a home.
				if st, ok := r.States[r.Object]; ok {
					states[r.Object] = st
					applied[key] = true
					continue
				}
			}
			base, ok := states[r.Object]
			if !ok {
				return nil, nil, fmt.Errorf("recovery: log references unknown object %s", r.Object)
			}
			l := &IntentionsList{}
			for _, c := range r.Calls {
				l.Add(c)
			}
			next, err := l.Apply(base)
			if err != nil {
				return nil, nil, fmt.Errorf("recovery: redo of %s at %s: %w", r.Txn, r.Object, err)
			}
			states[r.Object] = next
			applied[key] = true
		case RecordInstalled:
			// Informational; redo is idempotent because we replay from
			// initial states in log order.
		case RecordCheckpoint:
			// The snapshot summarises everything before it: adopt its
			// states (objects created after the checkpoint keep their
			// initial state, and an object the snapshot omits because it
			// had migrated out is dropped). Any transaction undecided at
			// checkpoint time had its intentions re-appended after the
			// checkpoint record by compaction, so they still replay onto
			// the snapshot.
			for id, st := range r.States {
				if _, known := states[id]; known {
					states[id] = st
				} else if r.Hosted[id] {
					// A migrated-in object absent from the caller's
					// initial set: the snapshot is its baseline.
					states[id] = st
				}
			}
			if r.Hosted != nil {
				for id, h := range r.Hosted {
					hosted[id] = h
					if !h {
						// A non-hosted object whose state the snapshot still
						// carries is a follower copy (replica group): keep
						// it — post-checkpoint deliveries replay onto it. A
						// plain migrated-out object has no snapshot state
						// and is dropped.
						if _, keep := r.States[id]; !keep {
							delete(states, id)
						}
					}
				}
			}
		}
	}
	return states, hosted, nil
}

// Checkpoint writes a checkpoint record — the committed-state snapshot
// obtained by replaying the current log plus the set of durably committed
// transactions — and compacts the log down to checkpoint + the intentions
// of still-undecided transactions. It returns the estimated bytes
// reclaimed. Under fault.DiskCheckpointTorn the checkpoint record tears:
// it is appended torn (so restart ignores it), nothing is compacted, and
// the full log remains the source of truth.
func (d *Disk) Checkpoint(specs map[histories.ObjectID]spec.SerialSpec) (int64, error) {
	return d.checkpoint(specs, nil, false)
}

// CheckpointHosted is Checkpoint for sites with migration support: the
// checkpoint record additionally snapshots which objects the site hosts
// (derived from initialHosted plus the log's committed migrations), so
// hosting survives the compaction that drops the migration records
// themselves. initialHosted has RestartHosted's semantics.
func (d *Disk) CheckpointHosted(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool) (int64, error) {
	return d.checkpoint(specs, initialHosted, true)
}

func (d *Disk) checkpoint(specs map[histories.ObjectID]spec.SerialSpec, initialHosted map[histories.ObjectID]bool, withHosted bool) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Snapshot by replaying the log under the disk mutex: the states are
	// exactly what Restart would rebuild at this instant, so the snapshot
	// can never tear across a multi-object installation.
	states, hosted, err := replayHosted(d.records, specs, initialHosted)
	if err != nil {
		return 0, fmt.Errorf("recovery: checkpoint replay: %w", err)
	}
	cp := Record{Kind: RecordCheckpoint, States: states, Decided: make(map[histories.ActivityID]bool)}
	if withHosted {
		cp.Hosted = hosted
	}
	undecided := make(map[histories.ActivityID]bool)
	for _, r := range d.records {
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordIntentions:
			undecided[r.Txn] = true
		case RecordCommit:
			delete(undecided, r.Txn)
			cp.Decided[r.Txn] = true
		case RecordAbort:
			delete(undecided, r.Txn)
		case RecordCheckpoint:
			for txn := range r.Decided {
				cp.Decided[txn] = true
			}
		}
	}
	// Replica watermark: the snapshot folds in every committed ReplicaIn
	// delivery, and compaction is about to drop those records, so the
	// checkpoint must carry the per-object high-water timestamp forward
	// (its own plus any prior checkpoint's).
	replicaTS := make(map[histories.ObjectID]histories.Timestamp)
	for _, r := range d.records {
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordIntentions:
			if r.Migrate == ReplicaIn && cp.Decided[r.Txn] && r.TS > replicaTS[r.Object] {
				replicaTS[r.Object] = r.TS
			}
		case RecordCheckpoint:
			for id, ts := range r.ReplicaTS {
				if ts > replicaTS[id] {
					replicaTS[id] = ts
				}
			}
		}
	}
	if len(replicaTS) > 0 {
		cp.ReplicaTS = replicaTS
	}
	if d.inj.Fires(fault.DiskCheckpointTorn) {
		torn := cp.clone()
		torn.States = nil // the snapshot never made it to stable storage
		torn.Decided = nil
		torn.Hosted = nil
		torn.ReplicaTS = nil
		torn.Torn = true
		d.records = append(d.records, torn)
		obsCheckpointTorn.Inc()
		return 0, fmt.Errorf("%w: torn checkpoint", ErrWriteFailed)
	}
	var before, after int64
	for _, r := range d.records {
		before += recordBytes(r)
	}
	compacted := []Record{cp}
	for _, r := range d.records {
		if !r.Torn && r.Kind == RecordIntentions && undecided[r.Txn] {
			compacted = append(compacted, r)
		}
	}
	d.records = compacted
	for _, r := range d.records {
		after += recordBytes(r)
	}
	reclaimed := before - after
	if reclaimed < 0 {
		reclaimed = 0
	}
	obsCheckpoints.Inc()
	obsCheckpointReclaim.Add(reclaimed)
	obsWALAppends.Inc()
	obsWALBytes.Add(recordBytes(cp))
	return reclaimed, nil
}

// ReplicaWatermarks scans the log for the per-object replica delivery
// floor: the highest timestamp among committed ReplicaIn records, merged
// with any checkpoint's carried-forward ReplicaTS. A follower recovering
// from this log must refuse snapshot reads below the floor — every
// delivery at or below it is already folded into the replayed state, so a
// lower-timestamped read would anachronistically observe later effects.
func ReplicaWatermarks(d Backend) map[histories.ObjectID]histories.Timestamp {
	recs := d.Records()
	committed := make(map[histories.ActivityID]bool)
	for _, r := range recs {
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordCommit:
			committed[r.Txn] = true
		case RecordCheckpoint:
			for txn := range r.Decided {
				committed[txn] = true
			}
		}
	}
	marks := make(map[histories.ObjectID]histories.Timestamp)
	for _, r := range recs {
		if r.Torn {
			continue
		}
		switch r.Kind {
		case RecordIntentions:
			if r.Migrate == ReplicaIn && committed[r.Txn] && r.TS > marks[r.Object] {
				marks[r.Object] = r.TS
			}
		case RecordCheckpoint:
			for id, ts := range r.ReplicaTS {
				if ts > marks[id] {
					marks[id] = ts
				}
			}
		}
	}
	return marks
}
