package ccrt

import (
	"fmt"
	"sort"

	"weihl83/internal/histories"
	"weihl83/internal/spec"
)

// Version is one committed update's section of a version log: the state
// after applying it and every earlier version.
type Version struct {
	TS    histories.Timestamp
	State spec.State
}

// VersionLog is the timestamp-ordered log of committed state snapshots a
// hybrid-atomicity object serves read-only queries from. Externally locked,
// like Table and WaitSet.
//
// Prune bounds the log by the read horizon: a timestamp at or below the
// snapshot timestamp of every reader that may still query it. For every
// ts at or above the horizon, StateBelow(ts) returns the same state before
// and after the prune.
type VersionLog struct {
	versions []Version
}

// Append adds a version, enforcing that timestamps arrive strictly
// ascending — the invariant the commit sequencer (or, before it, the global
// commit mutex) exists to provide. A violation is a protocol bug, reported
// for the object to record as corruption.
func (l *VersionLog) Append(ts histories.Timestamp, st spec.State) error {
	if n := len(l.versions); n > 0 && ts <= l.versions[n-1].TS {
		return fmt.Errorf("version timestamp %d not above log head %d", ts, l.versions[n-1].TS)
	}
	l.versions = append(l.versions, Version{TS: ts, State: st})
	return nil
}

// StateBelow returns the state containing exactly the committed updates
// with timestamps strictly below ts, or init if there are none.
func (l *VersionLog) StateBelow(ts histories.Timestamp, init spec.State) spec.State {
	i := sort.Search(len(l.versions), func(i int) bool { return l.versions[i].TS >= ts })
	if i == 0 {
		return init
	}
	return l.versions[i-1].State
}

// Head returns the newest version's state, or init if the log is empty.
func (l *VersionLog) Head(init spec.State) spec.State {
	if n := len(l.versions); n > 0 {
		return l.versions[n-1].State
	}
	return init
}

// Prune discards the versions no reader at or above horizon can see: it
// keeps the newest version below horizon and every version after it. A zero
// horizon means the readers are unknown and keeps everything. The kept
// versions are compacted in place and the vacated slots cleared, so dropped
// states can be collected and the backing array is reused.
func (l *VersionLog) Prune(horizon histories.Timestamp) {
	if horizon == histories.TSNone {
		return
	}
	i := sort.Search(len(l.versions), func(i int) bool { return l.versions[i].TS >= horizon })
	if i <= 1 {
		return
	}
	n := copy(l.versions, l.versions[i-1:])
	clear(l.versions[n:])
	l.versions = l.versions[:n]
}

// Len returns the number of versions.
func (l *VersionLog) Len() int { return len(l.versions) }
