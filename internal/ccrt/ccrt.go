// Package ccrt is the runtime kernel shared by the online
// concurrency-control protocols: the protocol-independent machinery that
// locking (dynamic atomicity), mvcc (static atomicity), and hybridcc
// (hybrid atomicity) all need but that none of them owns.
//
// The paper's §4 presents the three local atomicity properties over one
// vocabulary of events and serial specifications; Malta & Martinez's
// commutativity framework likewise factors protocol-independent ADT
// machinery from the protocol-specific conflict rules. This package is that
// factoring in code. It holds:
//
//   - Replay / StepMatching (replay.go): result-matching replay of recorded
//     calls against a serial specification — the single implementation of
//     the helper previously triplicated across mvcc, hybridcc, and
//     recovery.
//   - Table (table.go): the per-transaction entry table every protocol
//     object keeps, externally locked by the object's own mutex.
//   - WaitSet (waitset.go): per-waiter wakeup channels replacing the
//     close-and-replace generation broadcast, enabling targeted wakeups
//     (wake exactly the doomed transaction) alongside object-local
//     wake-everyone transitions.
//   - Sequencer (seq.go): the ticket protocol that orders hybrid commit
//     installation by commit timestamp without one global lock held across
//     the whole install; its ticketless Do orders hybrid readers'
//     snapshot-timestamp draws against the commit-timestamp draws.
//   - VersionLog (versions.go): a hybrid object's committed versions,
//     pruned at the read horizon of the readers still in flight.
//   - Recorder (recorder.go): the sharded, sequence-stamped event recorder
//     behind Manager.Sink, replacing the single-mutex history append.
//
// Everything here is deliberately free of protocol decisions: guards,
// timestamp rules, and version validation stay in the protocol packages.
package ccrt
