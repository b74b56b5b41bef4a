package wal

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// StoreOptions configures OpenStore.
type StoreOptions struct {
	// FS is the filesystem (nil = OSFS).
	FS FS
	// SegmentBytes configures the underlying Log.
	SegmentBytes int64
	// SnapshotEvery triggers a snapshot after this many appended records
	// (0 = snapshots disabled; the log grows until the process restarts).
	SnapshotEvery int
	// Metrics, when non-nil, accumulates durability counters.
	Metrics *Metrics
}

// Store is the durability layer a node mounts on a data directory: one
// shared log for every participant, periodic snapshots, and the recovery
// state left by the previous incarnation.
//
// Lifecycle: OpenStore (recovery scan) → Journal(name) per participant →
// ObjectJournal.Recover per participant (restore + replay) → serve.
//
// A participant is anything that journals under a name: an object's call
// ledger, the node's at-most-once table (AckLedger), or another layer's own
// records (ObjectJournal.Append). One rule: no record may live in the store
// unless its writer contributes a checkpoint — a snapshot prunes every
// record at or below its floor.
type Store struct {
	log  *Log
	opts StoreOptions

	mu        sync.Mutex
	journals  map[string]*ObjectJournal
	order     []*ObjectJournal     // registration order: the order checkpoints are taken in
	byObject  map[string][]*Record // recovered records by participant; a key (even with no records) awaits Recover
	snapState map[string][]byte    // recovered snapshot blobs by participant

	stats RecoveryStats

	recsSinceSnap int
	snapping      bool
	snapWG        sync.WaitGroup
	closed        bool
}

// RecoveryStats summarizes what recovery found, and how the store's last
// snapshot went; the daemon logs it at startup and at drain.
type RecoveryStats struct {
	Outcomes   int // records to replay, AckLedger's aside
	Acks       int // AckLedger records to replay
	SnapshotAt uint64
	TornBytes  int64
	Segments   int
	Duration   time.Duration
	// SnapshotErr is the last snapshot's failure, a deferral included; nil
	// until one fails, and again once one succeeds.
	SnapshotErr error
}

// OpenStore recovers dir and returns a Store ready for Journal/Recover.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	l, rec, err := Open(dir, Options{
		FS:           opts.FS,
		SegmentBytes: opts.SegmentBytes,
		Metrics:      opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		log:      l,
		opts:     opts,
		journals: make(map[string]*ObjectJournal),
		byObject: make(map[string][]*Record),
	}
	s.stats.TornBytes = rec.TornBytes
	s.stats.Segments = rec.Segments
	s.stats.Duration = rec.Duration
	records := rec.Records
	if snap := rec.Snapshot; snap != nil {
		s.stats.SnapshotAt = snap.LSN
		s.snapState = snap.Objects
		for name := range snap.Objects {
			s.byObject[name] = nil
		}
	}
	// The cadence counts what a restart would replay, not what this process
	// wrote: a store reopened again and again before its SnapshotEvery-th
	// append would otherwise never checkpoint.
	s.recsSinceSnap = len(records)
	for _, r := range records {
		s.byObject[r.Object] = append(s.byObject[r.Object], r)
		if r.Object == AckLedger {
			s.stats.Acks++
		} else {
			s.stats.Outcomes++
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

// Unclaimed names, sorted, every participant the previous incarnation left
// records or a checkpoint under that has not been through Recover yet.
// While any remains, every snapshot defers.
func (s *Store) Unclaimed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.byObject))
	for name := range s.byObject {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DurableEntry reports whether calls to object/entry are journaled (and
// must therefore be synced before acknowledgement).
func (s *Store) DurableEntry(object, entry string) bool {
	s.mu.Lock()
	j, ok := s.journals[object]
	s.mu.Unlock()
	return ok && !j.skips(entry)
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
			go s.snapshot() // its failure lands in Stats().SnapshotErr
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

// snapshot builds and publishes one checkpoint: floor := AppendedLSN, then
// every participant's Snapshot hook in registration order. The snapshot
// claims to cover records ≤ floor; anything recorded after that line may
// also leak into the collected state (the floor is fuzzy), which is why
// replay above the floor must be idempotent. The store imposes no other
// order: a hook whose blob could reveal a record not yet on stable storage
// waits for it first (docs/DURABILITY.md §5).
//
// A snapshot DEFERS — returns an error, writes and prunes nothing — while
// the previous incarnation left records or a blob under a name that has not
// been through Recover: this snapshot would not cover them, and pruning to
// its floor would be the only way to lose them.
func (s *Store) snapshot() (err error) {
	defer func() {
		s.mu.Lock()
		s.snapping = false
		s.stats.SnapshotErr = err
		s.mu.Unlock()
		s.snapWG.Done()
	}()

	floor := s.log.AppendedLSN()
	if names := s.Unclaimed(); len(names) > 0 {
		return fmt.Errorf("wal: snapshot deferred: %q left state in this store and have not called Recover", names)
	}
	s.mu.Lock()
	journals := append([]*ObjectJournal(nil), s.order...)
	s.mu.Unlock()

	snap := &Snapshot{LSN: floor, Objects: make(map[string][]byte, len(journals))}
	for _, j := range journals {
		j.mu.Lock()
		h := j.snap
		j.mu.Unlock()
		if h == nil {
			continue
		}
		blob, err := h()
		if err != nil {
			return fmt.Errorf("wal: snapshot %s: %w", j.name, err)
		}
		snap.Objects[j.name] = blob
	}

	// The floor must itself be durable before older segments go away: the
	// snapshot's state covers those records, but the snapshot file is the
	// only copy once they are pruned.
	if err := s.log.WaitSynced(floor); err != nil {
		return err
	}
	if _, err := writeSnapshot(s.log.fs, s.log.dir, snap); err != nil {
		return err
	}
	if m := s.opts.Metrics; m != nil {
		m.Snapshots.Inc()
	}
	s.log.pruneTo(floor)
	return nil
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
