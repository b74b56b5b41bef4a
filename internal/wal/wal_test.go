package wal

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func appendOutcome(t *testing.T, l *Log, object string, i int) uint64 {
	t.Helper()
	lsn, err := l.Append(&Record{
		Kind:   KindOutcome,
		Object: object,
		Entry:  "Write",
		Params: []any{i, i * 10},
	})
	if err != nil {
		t.Fatalf("append %d: %v", i, err)
	}
	return lsn
}

func TestLogAppendRecoverRoundTrip(t *testing.T) {
	fs := NewFailFS()
	l, rec, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Snapshot != nil {
		t.Fatalf("cold start recovered %d records, snapshot %v", len(rec.Records), rec.Snapshot)
	}
	for i := 0; i < 10; i++ {
		if lsn := appendOutcome(t, l, "kv", i); lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(rec2.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(rec2.Records))
	}
	for i, r := range rec2.Records {
		if r.LSN != uint64(i+1) || r.Entry != "Write" {
			t.Fatalf("record %d = %+v", i, r)
		}
		if k, v := r.Params[0].(int), r.Params[1].(int); k != i || v != i*10 {
			t.Fatalf("record %d params = %v", i, r.Params)
		}
	}
	if rec2.LastLSN != 10 {
		t.Fatalf("LastLSN = %d, want 10", rec2.LastLSN)
	}
	// Appending resumes above recovered history.
	if lsn := appendOutcome(t, l2, "kv", 10); lsn != 11 {
		t.Fatalf("post-recovery lsn = %d, want 11", lsn)
	}
}

func TestCrashDropsUnsyncedTail(t *testing.T) {
	for _, torn := range []int{0, 5} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			fs := NewFailFS()
			fs.TornTail = torn
			l, _, err := Open("data", Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ {
				appendOutcome(t, l, "kv", i)
			}
			if err := l.WaitSynced(6); err != nil {
				t.Fatal(err)
			}
			for i := 6; i < 9; i++ {
				appendOutcome(t, l, "kv", i)
			}
			// Flush to the file WITHOUT fsync so the bytes are vulnerable.
			l.mu.Lock()
			_ = l.bw.Flush()
			l.mu.Unlock()
			fs.Crash()

			l2, rec, err := Open("data", Options{FS: fs})
			if err != nil {
				t.Fatalf("recovery after crash: %v", err)
			}
			if len(rec.Records) != 6 {
				t.Fatalf("recovered %d records, want the 6 synced ones", len(rec.Records))
			}
			if torn > 0 && rec.TornBytes == 0 {
				t.Fatalf("expected a torn tail to be truncated, TornBytes = 0")
			}
			// Survive a second crash immediately after recovery (the
			// truncation must be durable).
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			fs.Crash()
			_, rec3, err := Open("data", Options{FS: fs})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			if len(rec3.Records) != 6 {
				t.Fatalf("second recovery found %d records, want 6", len(rec3.Records))
			}
		})
	}
}

func TestSealedSegmentsSurviveCrashWithoutSync(t *testing.T) {
	fs := NewFailFS()
	// Tiny segments: every record rotates, and rotation fsyncs the sealed
	// segment, so records are durable without any explicit caller sync.
	l, _, err := Open("data", Options{FS: fs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendOutcome(t, l, "kv", i)
	}
	fs.Crash()
	_, rec, err := Open("data", Options{FS: fs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The last record may be lost (its segment was still buffered), every
	// sealed one must not be.
	if len(rec.Records) < 4 {
		t.Fatalf("recovered %d records, want >= 4 sealed ones", len(rec.Records))
	}
}

func TestCorruptSealedSegmentFailsRecovery(t *testing.T) {
	fs := NewFailFS()
	l, _, err := Open("data", Options{FS: fs, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		appendOutcome(t, l, "kv", i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the FIRST segment: damage before the final
	// segment is data loss, not a torn tail, and recovery must say so.
	fs.mu.Lock()
	var first string
	for name := range fs.files {
		if strings.Contains(name, segPrefix) && (first == "" || name < first) {
			first = name
		}
	}
	fs.files[first].data[recHeaderLen] ^= 0xff
	fs.mu.Unlock()

	_, _, err = Open("data", Options{FS: fs, SegmentBytes: 1})
	if err == nil {
		t.Fatal("recovery accepted a corrupt sealed segment")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestGroupCommitBatchesFsyncs: the steady state of the pipelined commit is
// two alternating batches. While one waiter's fsync is in flight the other
// fifteen stage their records behind it; that fsync publishes exactly what
// it flushed, and ONE more covers all fifteen.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	fs := NewFailFS()
	l, _, err := Open("data", Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const writers = 16
	base := fs.Syncs()
	gate := holdSyncs(fs)
	var wg sync.WaitGroup
	wait := func(lsn uint64) {
		defer wg.Done()
		if err := l.WaitSynced(lsn); err != nil {
			t.Errorf("wait %d: %v", lsn, err)
		}
	}
	wg.Add(writers)
	go wait(appendOutcome(t, l, "kv", 0))
	<-gate.entered
	for w := 1; w < writers; w++ {
		go wait(appendOutcome(t, l, "kv", w))
	}
	frontier(t, l, writers, 0)
	gate.verdict <- nil
	<-gate.entered
	frontier(t, l, writers, 1)
	gate.verdict <- nil
	wg.Wait()
	gate.pass.Store(true)
	frontier(t, l, writers, writers)
	if syncs := fs.Syncs() - base; syncs != 2 {
		t.Fatalf("fsyncs = %d for %d waiters, want 2 (one per batch)", syncs, writers)
	}
}

// kvState is the fake journaled object for store tests: a last-write-wins
// map with gob snapshot hooks, the same shape rwdb exposes.
type kvState struct {
	mu   sync.Mutex
	data map[int]int
}

func newKVState() *kvState { return &kvState{data: make(map[int]int)} }

func (s *kvState) write(k, v int) {
	s.mu.Lock()
	s.data[k] = v
	s.mu.Unlock()
}

func (s *kvState) hooks() RecoverHooks {
	return RecoverHooks{
		Restore: func(data []byte) error {
			s.mu.Lock()
			defer s.mu.Unlock()
			return gob.NewDecoder(bytes.NewReader(data)).Decode(&s.data)
		},
		Replay: func(entry string, params []any) error {
			if entry != "Write" {
				return fmt.Errorf("unexpected replay entry %q", entry)
			}
			s.write(params[0].(int), params[1].(int))
			return nil
		},
		Snapshot: func() ([]byte, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(s.data)
			return buf.Bytes(), err
		},
	}
}

func storeWrite(t *testing.T, j *ObjectJournal, s *kvState, k, v int) {
	t.Helper()
	s.write(k, v)
	if lsn := j.RecordOutcome("Write", 0, []any{k, v}, nil, nil); lsn == 0 {
		if err := j.Err(); err != nil {
			t.Fatalf("journal write: %v", err)
		}
	}
}

func TestStoreSnapshotReplayAcrossCrash(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	kv := newKVState()
	j := st.Journal("kv", JournalOptions{
		Wait: true,
		Skip: func(entry string) bool { return entry == "Read" },
	})
	if _, err := j.Recover(kv.hooks()); err != nil {
		t.Fatal(err)
	}

	// Ten writes, snapshot, five overwrites, a couple of acks, sync.
	for i := 0; i < 10; i++ {
		storeWrite(t, j, kv, i, i)
	}
	if err := st.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		storeWrite(t, j, kv, i, 100+i)
	}
	lsn, err := st.Journal(AckLedger, JournalOptions{}).Append("ack", []any{"client-1", uint64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WaitSynced(lsn); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	st2, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats := st2.Stats()
	if stats.SnapshotAt == 0 {
		t.Fatalf("stats = %+v, want a snapshot floor", stats)
	}
	if stats.Outcomes < 5 || stats.Acks != 1 {
		t.Fatalf("stats = %+v, want >=5 outcomes and 1 ack", stats)
	}
	var acks [][]any
	if _, err := st2.Journal(AckLedger, JournalOptions{}).Recover(RecoverHooks{
		Replay: func(_ string, p []any) error { acks = append(acks, p); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if len(acks) != 1 || acks[0][0] != "client-1" || acks[0][1] != uint64(7) {
		t.Fatalf("recovered acks = %v", acks)
	}

	kv2 := newKVState()
	j2 := st2.Journal("kv", JournalOptions{Wait: true})
	replayed, err := j2.Recover(kv2.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if replayed < 5 {
		t.Fatalf("replayed %d records, want >= 5", replayed)
	}
	kv.mu.Lock()
	want := kv.data
	kv.mu.Unlock()
	kv2.mu.Lock()
	defer kv2.mu.Unlock()
	if len(kv2.data) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(kv2.data), len(want))
	}
	for k, v := range want {
		if kv2.data[k] != v {
			t.Fatalf("key %d = %d after recovery, want %d", k, kv2.data[k], v)
		}
	}
}

func TestSnapshotPrunesSegments(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	kv := newKVState()
	j := st.Journal("kv", JournalOptions{Wait: true})
	if _, err := j.Recover(kv.hooks()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		storeWrite(t, j, kv, i, i)
	}
	segsBefore, _ := listSorted(fs, "data", segPrefix, segSuffix)
	if err := st.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listSorted(fs, "data", segPrefix, segSuffix)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("snapshot pruned nothing: %d segments before, %d after", len(segsBefore), len(segsAfter))
	}
	snaps, _ := listSorted(fs, "data", snapPrefix, snapSuffix)
	if len(snaps) != 1 {
		t.Fatalf("%d snapshot files, want 1", len(snaps))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from snapshot + surviving suffix reproduces the state.
	st2, err := OpenStore("data", StoreOptions{FS: fs, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	kv2 := newKVState()
	j2 := st2.Journal("kv", JournalOptions{Wait: true})
	if _, err := j2.Recover(kv2.hooks()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if kv2.data[i] != i {
			t.Fatalf("key %d = %d after pruned recovery, want %d", i, kv2.data[i], i)
		}
	}
}

func TestSnapshotEveryTriggersAutomatically(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	kv := newKVState()
	j := st.Journal("kv", JournalOptions{Wait: true})
	if _, err := j.Recover(kv.hooks()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		storeWrite(t, j, kv, i, i)
	}
	if err := st.Close(); err != nil { // waits for in-flight snapshots
		t.Fatal(err)
	}
	snaps, _ := listSorted(fs, "data", snapPrefix, snapSuffix)
	if len(snaps) == 0 {
		t.Fatal("no snapshot after 25 appends with SnapshotEvery=10")
	}
}

func TestReplayDoesNotReJournal(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	kv := newKVState()
	j := st.Journal("kv", JournalOptions{Wait: true})
	if _, err := j.Recover(kv.hooks()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		storeWrite(t, j, kv, i, i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	before := st2.log.AppendedLSN()
	kv2 := newKVState()
	j2 := st2.Journal("kv", JournalOptions{Wait: true})
	hooks := kv2.hooks()
	replay := hooks.Replay
	hooks.Replay = func(entry string, params []any) error {
		// A real object's replay runs back through the journaled call
		// path; simulate that by recording the outcome mid-replay.
		if err := replay(entry, params); err != nil {
			return err
		}
		if lsn := j2.RecordOutcome(entry, 0, params, nil, nil); lsn != 0 {
			return fmt.Errorf("RecordOutcome returned lsn %d during replay", lsn)
		}
		return nil
	}
	if _, err := j2.Recover(hooks); err != nil {
		t.Fatal(err)
	}
	if after := st2.log.AppendedLSN(); after != before {
		t.Fatalf("replay appended %d records to the log", after-before)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSkippedEntriesNotJournaled(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := st.Journal("kv", JournalOptions{Skip: func(e string) bool { return e == "Read" }})
	if _, err := j.Recover(RecoverHooks{}); err != nil {
		t.Fatal(err)
	}
	if lsn := j.RecordOutcome("Read", 0, []any{1}, []any{2}, nil); lsn != 0 {
		t.Fatalf("skipped entry journaled at lsn %d", lsn)
	}
	if got := st.log.AppendedLSN(); got != 0 {
		t.Fatalf("log has %d records after skipped outcome", got)
	}
	if !st.DurableEntry("kv", "Write") || st.DurableEntry("kv", "Read") || st.DurableEntry("other", "Write") {
		t.Fatal("DurableEntry misclassifies")
	}
}

func TestFailedOutcomesNotJournaled(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := st.Journal("kv", JournalOptions{})
	if lsn := j.RecordOutcome("Write", 0, []any{1, 2}, nil, errors.New("boom")); lsn != 0 {
		t.Fatalf("failed outcome journaled at lsn %d", lsn)
	}
	if got := st.log.AppendedLSN(); got != 0 {
		t.Fatalf("log has %d records after failed outcome", got)
	}
}
