package wal

import (
	"fmt"
	"sync"
	"time"
)

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// FS is the filesystem (nil = OSFS).
	FS FS
	// SegmentBytes and SyncInterval configure the underlying Log.
	SegmentBytes int64
	SyncInterval time.Duration
	// SnapshotEvery triggers a snapshot after this many appended records
	// (0 = snapshots disabled; the log grows until the process restarts).
	SnapshotEvery int
	// Metrics, when non-nil, accumulates durability counters.
	Metrics *Metrics
}

// Store is the durability layer a node mounts on a data directory: one
// shared log for every journaled object plus the node's at-most-once ack
// ledger, periodic snapshots, and the recovery state left by the previous
// incarnation.
//
// Lifecycle: OpenStore (recovery scan) → Journal(name) per participant →
// ObjectJournal.Recover per participant (restore + replay) → serve. The rpc
// layer appends ack records and syncs them before a response leaves;
// RecoveredAcks seeds the dedup cache so retries across the crash are
// answered from disk.
//
// A participant is anything that journals under a name: an object's call
// ledger, or another layer's own records (ObjectJournal.Append). One rule:
// no record may live in the store unless its writer contributes a
// checkpoint — a snapshot prunes every record at or below its floor.
type Store struct {
	log  *Log
	dir  string
	fs   FS
	opts StoreOptions

	mu        sync.Mutex
	journals  map[string]*ObjectJournal
	byObject  map[string][]*Record // recovered records by participant; a key (even with no records) awaits Recover
	acks      []AckEntry           // recovered at-most-once ledger
	dedupDump func() []AckEntry    // set by the node; completed entries only
	snapState map[string][]byte    // recovered snapshot blobs by participant

	stats RecoveryStats

	recsSinceSnap int
	snapping      bool
	snapWG        sync.WaitGroup
	closed        bool
}

// RecoveryStats summarizes what recovery found; the daemon logs it at
// startup.
type RecoveryStats struct {
	Outcomes   int // outcome records replayed from the log
	Acks       int // ack records folded into the dedup seed
	SnapshotAt uint64
	TornBytes  int64
	Segments   int
	Duration   time.Duration
}

// OpenStore recovers dir and returns a Store ready for Journal/Recover.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	l, rec, err := Open(dir, Options{
		FS:           opts.FS,
		SegmentBytes: opts.SegmentBytes,
		SyncInterval: opts.SyncInterval,
		Metrics:      opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		log:      l,
		dir:      dir,
		fs:       l.fs,
		opts:     opts,
		journals: make(map[string]*ObjectJournal),
		byObject: make(map[string][]*Record),
	}
	s.stats.TornBytes = rec.TornBytes
	s.stats.Segments = rec.Segments
	s.stats.Duration = rec.Duration
	if snap := rec.Snapshot; snap != nil {
		s.stats.SnapshotAt = snap.LSN
		s.snapState = snap.Objects
		s.acks = append(s.acks, snap.Dedup...)
		for name := range snap.Objects {
			s.byObject[name] = nil
		}
	}
	// The cadence counts what a restart would replay, not what this process
	// wrote: a store reopened again and again before its SnapshotEvery-th
	// append would otherwise never checkpoint.
	s.recsSinceSnap = len(rec.Records)
	for _, r := range rec.Records {
		switch r.Kind {
		case KindOutcome:
			s.byObject[r.Object] = append(s.byObject[r.Object], r)
			s.stats.Outcomes++
		case KindAck:
			s.acks = append(s.acks, AckEntry{
				Client: r.Client, Seq: r.Seq,
				Results: r.Results, ErrMsg: r.ErrMsg, ErrKind: r.ErrKind,
			})
			s.stats.Acks++
		}
	}
	return s, nil
}

// Stats reports what recovery found.
func (s *Store) Stats() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// RecoveredAcks returns the at-most-once ledger the previous incarnation
// made durable (snapshot table plus ack records above its floor), for
// seeding the node's dedup cache. Later entries supersede earlier ones for
// the same (client, seq).
func (s *Store) RecoveredAcks() []AckEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AckEntry(nil), s.acks...)
}

// SetDedupDump registers the node's callback producing the COMPLETED
// at-most-once entries for inclusion in snapshots. The dump is taken
// before object state is collected, so every acknowledged call a snapshot
// remembers also has its effects in the snapshot's state (see
// docs/DURABILITY.md, "snapshot ordering").
func (s *Store) SetDedupDump(fn func() []AckEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dedupDump = fn
}

// DurableEntry reports whether calls to object/entry are journaled (and
// must therefore be synced before acknowledgement).
func (s *Store) DurableEntry(object, entry string) bool {
	s.mu.Lock()
	j, ok := s.journals[object]
	s.mu.Unlock()
	return ok && !j.skips(entry)
}

// AppendAck journals an acknowledgement record: the (client, seq) identity
// and the response about to leave the node. The caller must WaitSynced on
// the returned LSN before sending the response; because the ack is
// appended after the call's outcome record in the same log, that single
// sync also makes the state transition durable.
func (s *Store) AppendAck(object, entry, client string, seq uint64, results []any, errMsg string, errKind int32) (uint64, error) {
	return s.append(&Record{
		Kind:   KindAck,
		Object: object,
		Entry:  entry,
		Client: client,
		Seq:    seq,

		Results: results,
		ErrMsg:  errMsg,
		ErrKind: errKind,
	})
}

// WaitSynced blocks until every record up to lsn is on stable storage.
func (s *Store) WaitSynced(lsn uint64) error { return s.log.WaitSynced(lsn) }

// SyncedLSN reports the durability frontier (diagnostics).
func (s *Store) SyncedLSN() uint64 { return s.log.SyncedLSN() }

// AppendedLSN reports the highest LSN staged, durable or not (diagnostics).
func (s *Store) AppendedLSN() uint64 { return s.log.AppendedLSN() }

// append funnels every record through the snapshot trigger.
func (s *Store) append(rec *Record) (uint64, error) {
	lsn, err := s.log.Append(rec)
	if err != nil {
		return lsn, err
	}
	if s.opts.SnapshotEvery > 0 {
		s.mu.Lock()
		s.recsSinceSnap++
		fire := s.recsSinceSnap >= s.opts.SnapshotEvery && !s.snapping && !s.closed
		if fire {
			s.snapping = true
			s.recsSinceSnap = 0
			s.snapWG.Add(1)
		}
		s.mu.Unlock()
		if fire {
			go s.snapshot()
		}
	}
	return lsn, nil
}

// ForceSnapshot takes a snapshot synchronously (tests and operator tools).
func (s *Store) ForceSnapshot() error {
	s.mu.Lock()
	if s.snapping || s.closed {
		s.mu.Unlock()
		return fmt.Errorf("wal: snapshot already in progress or store closed")
	}
	s.snapping = true
	s.recsSinceSnap = 0
	s.snapWG.Add(1)
	s.mu.Unlock()
	return s.snapshot()
}

// snapshot builds and publishes one checkpoint.
//
// Ordering is load-bearing, in three steps:
//  1. floor := AppendedLSN — the snapshot claims to cover records ≤ floor.
//     Anything recorded after this line may also leak into the collected
//     state (the floor is fuzzy), which is why replay above the floor must
//     be idempotent.
//  2. Dedup dump BEFORE object state: an ack completed by dump time had
//     finished its body earlier still, so its effects are guaranteed to be
//     in the state collected in step 3 — a snapshot never remembers an
//     acknowledgement whose state it lost.
//  3. Per-participant state via each journal's snapshot hook (typically a
//     manager-exclusive entry, so the blob is not torn mid-write).
//
// A snapshot DEFERS — returns an error, writes and prunes nothing — while
// the previous incarnation left records or a blob under a name that has not
// been through Recover: this snapshot would not cover them, and pruning to
// its floor would be the only way to lose them.
func (s *Store) snapshot() error {
	defer func() {
		s.mu.Lock()
		s.snapping = false
		s.mu.Unlock()
		s.snapWG.Done()
	}()

	floor := s.log.AppendedLSN()

	s.mu.Lock()
	for name := range s.byObject {
		s.mu.Unlock()
		return fmt.Errorf("wal: snapshot deferred: %q (of %d) left state in this store and has not called Recover", name, len(s.byObject))
	}
	dump := s.dedupDump
	hooks := make(map[string]func() ([]byte, error), len(s.journals))
	for name, j := range s.journals {
		j.mu.Lock()
		if j.snap != nil {
			hooks[name] = j.snap
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	snap := &Snapshot{LSN: floor, Objects: make(map[string][]byte, len(hooks))}
	if dump != nil {
		snap.Dedup = dump()
	}
	for name, h := range hooks {
		blob, err := h()
		if err != nil {
			return fmt.Errorf("wal: snapshot %s: %w", name, err)
		}
		snap.Objects[name] = blob
	}

	// The floor must itself be durable before older segments go away: the
	// snapshot's state covers those records, but the snapshot file is the
	// only copy once they are pruned.
	if err := s.log.WaitSynced(floor); err != nil {
		return err
	}
	if _, err := writeSnapshot(s.fs, s.dir, snap); err != nil {
		return err
	}
	if m := s.opts.Metrics; m != nil {
		m.Snapshots.Inc()
	}
	s.pruneSnapshots(floor)
	s.log.pruneTo(floor)
	return nil
}

// pruneSnapshots removes snapshot files older than the one at floor.
func (s *Store) pruneSnapshots(floor uint64) {
	snaps, err := listSorted(s.fs, s.dir, snapPrefix, snapSuffix)
	if err != nil {
		return
	}
	for _, sn := range snaps {
		if sn.first < floor {
			_ = s.fs.Remove(s.dir + "/" + sn.name)
		}
	}
}

// Close waits for any in-flight snapshot, syncs the log tail and closes
// the store. Safe to call once during drain.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.snapWG.Wait()
	return s.log.Close()
}
