package wal

import (
	"errors"
	"path"
	"sync/atomic"
	"testing"
	"time"
)

// syncGate holds a FailFS's fsyncs open: until pass is set, every file Sync
// announces itself on entered and completes with what the test sends on
// verdict. (internal/fabric's durable_test.go carries the same helper.)
type syncGate struct {
	entered chan string
	verdict chan error
	pass    atomic.Bool
}

func holdSyncs(fs *FailFS) *syncGate {
	g := &syncGate{entered: make(chan string), verdict: make(chan error)}
	fs.SyncHook = func(name string) error {
		if g.pass.Load() {
			return nil
		}
		g.entered <- name
		return <-g.verdict
	}
	return g
}

func (fs *FailFS) isOpen(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mf, ok := fs.files[name]
	return ok && mf.open
}

func frontier(t *testing.T, l *Log, appended, synced uint64) {
	t.Helper()
	if got := l.AppendedLSN(); got != appended {
		t.Fatalf("AppendedLSN = %d, want %d", got, appended)
	}
	if got := l.SyncedLSN(); got != synced {
		t.Fatalf("SyncedLSN = %d, want %d", got, synced)
	}
}

// TestAppendsPipelineBehindHeldSync: an fsync in flight blocks nobody but
// its waiters. Records appended while it runs are staged, not published, and
// the frontier it publishes is what was flushed before it began; the next
// fsync covers everything that arrived meanwhile, in one.
func TestAppendsPipelineBehindHeldSync(t *testing.T) {
	fs := NewFailFS()
	l, _, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendOutcome(t, l, "kv", i)
	}
	base := fs.Syncs()
	gate := holdSyncs(fs)

	first := make(chan error, 1)
	go func() { first <- l.WaitSynced(3) }()
	<-gate.entered

	for i := 3; i < 7; i++ {
		appendOutcome(t, l, "kv", i) // returns: mu is free while the disk works
	}
	frontier(t, l, 7, 0)
	second := make(chan error, 1)
	go func() { second <- l.WaitSynced(7) }()

	gate.verdict <- nil
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the waiter for 7 was not covered: it flushes the rest
	frontier(t, l, 7, 3)
	gate.verdict <- nil
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	frontier(t, l, 7, 7)
	if got := fs.Syncs() - base; got != 2 {
		t.Fatalf("fsyncs = %d, want 2: one per batch", got)
	}
	gate.pass.Store(true)

	// What the log published is what the disk holds.
	fs.Crash()
	_, rec, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 7 {
		t.Fatalf("recovered %d records, want 7", len(rec.Records))
	}
}

// TestRotationWaitsForInFlightSync: an append that must rotate the segment
// while a flusher's fsync is still running on it neither closes the file
// under that fsync nor loses a record on either side of the rotation.
func TestRotationWaitsForInFlightSync(t *testing.T) {
	fs := NewFailFS()
	l, _, err := Open("data", Options{FS: fs, SegmentBytes: 1}) // every append after the first rotates
	if err != nil {
		t.Fatal(err)
	}
	appendOutcome(t, l, "kv", 0)
	seg1 := path.Join("data", segmentName(1))
	gate := holdSyncs(fs)

	synced := make(chan error, 1)
	go func() { synced <- l.WaitSynced(1) }()
	if name := <-gate.entered; name != seg1 {
		t.Fatalf("fsync on %s, want %s", name, seg1)
	}
	// Only the flusher's fsync is held: the one the rotation runs itself to
	// seal the segment goes straight through, so nothing but the log's own
	// locking keeps the rotation off the file.
	gate.pass.Store(true)

	rotated := make(chan uint64, 1)
	go func() {
		lsn, err := l.Append(&Record{Kind: KindOutcome, Object: "kv", Entry: "Write", Params: []any{1, 10}})
		if err != nil {
			t.Errorf("rotating append: %v", err)
		}
		rotated <- lsn
	}()
	// The rotation may not finish while the fsync is held; the timer only
	// gives a log that closes the file regardless the time to do it.
	select {
	case <-rotated:
		t.Fatal("the segment was rotated out from under an in-flight fsync")
	case <-time.After(20 * time.Millisecond):
	}
	if !fs.isOpen(seg1) {
		t.Fatalf("%s closed under an in-flight fsync", seg1)
	}
	if got := l.SyncedLSN(); got != 0 {
		t.Fatalf("SyncedLSN = %d while the fsync is held, want 0", got)
	}

	gate.verdict <- nil
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if lsn := <-rotated; lsn != 2 {
		t.Fatalf("rotating append got LSN %d, want 2", lsn)
	}
	if fs.isOpen(seg1) {
		t.Fatalf("%s still open after the rotation", seg1)
	}
	if err := l.WaitSynced(2); err != nil {
		t.Fatal(err)
	}
	frontier(t, l, 2, 2)

	fs.Crash()
	_, rec, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.Segments != 2 {
		t.Fatalf("recovered %d records in %d segments, want 2 in 2", len(rec.Records), rec.Segments)
	}
}

// TestFailedSyncFailsBatchAndPoisonsLog: an fsync error is sticky. Every
// waiter at or below the failed batch gets it, nothing is published, later
// appends and waits are refused without touching the disk again, and a
// restart recovers exactly the prefix that was durable before.
func TestFailedSyncFailsBatchAndPoisonsLog(t *testing.T) {
	fs := NewFailFS()
	l, _, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	appendOutcome(t, l, "kv", 0)
	appendOutcome(t, l, "kv", 1)
	if err := l.WaitSynced(2); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 5; i++ {
		appendOutcome(t, l, "kv", i)
	}
	errDisk := errors.New("injected: disk gone")
	gate := holdSyncs(fs)

	waiters := make(chan error, 3)
	go func() { waiters <- l.WaitSynced(3) }()
	<-gate.entered
	go func() { waiters <- l.WaitSynced(4) }()
	go func() { waiters <- l.WaitSynced(5) }()
	gate.pass.Store(true) // a further fsync would succeed: none may be tried
	gate.verdict <- errDisk
	for i := 0; i < 3; i++ {
		if err := <-waiters; !errors.Is(err, errDisk) {
			t.Fatalf("waiter %d: err = %v, want the fsync failure", i, err)
		}
	}
	frontier(t, l, 5, 2)

	base := fs.Syncs()
	if err := l.WaitSynced(2); err != nil {
		t.Fatalf("a record durable before the failure: %v", err)
	}
	if err := l.WaitSynced(5); !errors.Is(err, errDisk) {
		t.Fatalf("late waiter: err = %v, want the sticky fsync failure", err)
	}
	if _, err := l.Append(&Record{Kind: KindOutcome, Object: "kv", Entry: "Write"}); !errors.Is(err, errDisk) {
		t.Fatalf("append after a failed fsync: err = %v, want it refused", err)
	}
	frontier(t, l, 5, 2)
	if got := fs.Syncs() - base; got != 0 {
		t.Fatalf("%d fsyncs retried after the failure, want 0", got)
	}

	fs.Crash()
	_, rec, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.LastLSN != 2 {
		t.Fatalf("recovered %d records (last LSN %d), want the durable prefix of 2", len(rec.Records), rec.LastLSN)
	}
}
