package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// ledger is a participant with a vocabulary of its own: it journals
// through Append and checkpoints the highest sequence number it has seen.
type ledger struct {
	restored []byte
	replayed []uint64
	high     atomic.Uint64 // the store's snapshot goroutine reads it beside note
}

func (p *ledger) hooks() RecoverHooks {
	return RecoverHooks{
		Restore: func(blob []byte) error {
			p.restored = blob
			var high uint64
			_, err := fmt.Sscanf(string(blob), "high=%d", &high)
			p.high.Store(high)
			return err
		},
		Replay: func(entry string, params []any) error {
			n, ok := params[0].(uint64)
			if entry != "note" || !ok {
				return fmt.Errorf("unexpected record %s%v", entry, params)
			}
			p.replayed = append(p.replayed, n)
			if n > p.high.Load() {
				p.high.Store(n)
			}
			return nil
		},
		Snapshot: func() ([]byte, error) { return []byte(fmt.Sprintf("high=%d", p.high.Load())), nil },
	}
}

func (p *ledger) note(t *testing.T, j *ObjectJournal, n uint64) {
	t.Helper()
	p.high.Store(n)
	if _, err := j.Append("note", []any{n}); err != nil {
		t.Fatalf("append %d: %v", n, err)
	}
}

func dirSizes(fs *FailFS, dir string) map[string]int {
	names, _ := fs.List(dir)
	out := make(map[string]int, len(names))
	for _, name := range names {
		out[name] = len(fs.bytesOf(dir + "/" + name))
	}
	return out
}

// TestParticipantRecordsSurviveSnapshotPruneReopen: records a participant
// wrote through ObjectJournal.Append are covered by a store snapshot like
// any object's — after ForceSnapshot, segment rotation, prune and a crash,
// Restore gets the checkpoint blob and Replay gets exactly the records
// above the floor, in LSN order.
func TestParticipantRecordsSurviveSnapshotPruneReopen(t *testing.T) {
	fs := NewFailFS()
	opts := StoreOptions{FS: fs, SegmentBytes: 128}
	st, err := OpenStore("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	p := &ledger{}
	j := st.Journal("!ctl:p", JournalOptions{Skip: func(string) bool { return true }})
	if _, err := j.Recover(p.hooks()); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 50; n++ {
		p.note(t, j, n)
	}
	segsBefore, _ := listSorted(fs, "data", segPrefix, segSuffix)
	if err := st.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if segsAfter, _ := listSorted(fs, "data", segPrefix, segSuffix); len(segsAfter) >= len(segsBefore) {
		t.Fatalf("snapshot pruned nothing: %d segments before, %d after", len(segsBefore), len(segsAfter))
	}
	for n := uint64(51); n <= 60; n++ {
		p.note(t, j, n)
	}
	if err := st.log.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	st2, err := OpenStore("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Stats().SnapshotAt; got != 50 {
		t.Fatalf("snapshot floor = %d, want 50", got)
	}
	p2 := &ledger{}
	replayed, err := st2.Journal("!ctl:p", JournalOptions{}).Recover(p2.hooks())
	if err != nil {
		t.Fatal(err)
	}
	if string(p2.restored) != "high=50" {
		t.Fatalf("Restore got %q, want the checkpoint taken at the floor", p2.restored)
	}
	if replayed != 10 || len(p2.replayed) != 10 {
		t.Fatalf("replayed %d records (%v), want exactly the 10 above the floor", replayed, p2.replayed)
	}
	for i, n := range p2.replayed {
		if n != uint64(51+i) {
			t.Fatalf("replay order %v, want 51..60", p2.replayed)
		}
	}
	if p2.high.Load() != 60 {
		t.Fatalf("recovered high = %d, want 60 (all 60 records accounted for)", p2.high.Load())
	}
}

// TestSnapshotDefersWhileParticipantUnrecovered: a snapshot taken before
// every participant of the previous incarnation has called Recover would
// not cover that participant's records, and pruning to its floor would lose
// them. The store refuses — writes no snapshot, prunes nothing — until the
// last one has recovered.
func TestSnapshotDefersWhileParticipantUnrecovered(t *testing.T) {
	fs := NewFailFS()
	opts := StoreOptions{FS: fs, SegmentBytes: 128}
	st, err := OpenStore("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	p, kv := &ledger{}, newKVState()
	jp := st.Journal("!ctl:p", JournalOptions{})
	jkv := st.Journal("kv", JournalOptions{})
	if _, err := jp.Recover(p.hooks()); err != nil {
		t.Fatal(err)
	}
	if _, err := jkv.Recover(kv.hooks()); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 20; n++ {
		p.note(t, jp, n)
		storeWrite(t, jkv, kv, int(n), int(n))
	}
	if err := st.ForceSnapshot(); err != nil { // p now also has a checkpoint blob
		t.Fatal(err)
	}
	for n := uint64(21); n <= 30; n++ {
		p.note(t, jp, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	kv2 := newKVState()
	jkv2 := st2.Journal("kv", JournalOptions{})
	if _, err := jkv2.Recover(kv2.hooks()); err != nil {
		t.Fatal(err)
	}
	storeWrite(t, jkv2, kv2, 99, 99)
	before := dirSizes(fs, "data")
	err = st2.ForceSnapshot()
	if err == nil || !strings.Contains(err.Error(), "!ctl:p") {
		t.Fatalf("ForceSnapshot with !ctl:p unrecovered = %v, want a deferral naming it", err)
	}
	if after := dirSizes(fs, "data"); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("deferred snapshot touched the directory:\nbefore %v\nafter  %v", before, after)
	}

	p2 := &ledger{}
	if _, err := st2.Journal("!ctl:p", JournalOptions{}).Recover(p2.hooks()); err != nil {
		t.Fatal(err)
	}
	if p2.high.Load() != 30 || len(p2.replayed) != 10 {
		t.Fatalf("recovered high=%d replayed=%v, want 30 and records 21..30", p2.high.Load(), p2.replayed)
	}
	if err := st2.ForceSnapshot(); err != nil {
		t.Fatalf("ForceSnapshot after every participant recovered: %v", err)
	}
	if snaps, _ := listSorted(fs, "data", snapPrefix, snapSuffix); len(snaps) != 1 || snaps[0].first != 51 {
		t.Fatalf("snapshots after the deferred one proceeded = %+v, want one at lsn 51", snaps)
	}
}

// TestOpenRefusesRetiredLayoutUntouched: an intact kind-3 record means the
// directory was written by a build that journaled consensus state outside
// the snapshot contract. Classing it as corruption would make Open cut the
// journal there as a "torn tail"; instead Open fails with ErrRetiredLayout
// and leaves every file — including the *.tmp and stale snapshot it would
// normally delete — exactly as found.
func TestOpenRefusesRetiredLayoutUntouched(t *testing.T) {
	for _, tc := range []struct {
		name  string
		final bool // the kind-3 record sits in the final segment
	}{{"final segment", true}, {"sealed segment", false}} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFailFS()
			write := func(name string, data []byte) {
				f, err := fs.Create("data/" + name)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(data)
				f.Sync()
				f.Close()
			}
			var seg1, seg2 bytes.Buffer
			for _, rec := range []*Record{
				{Kind: KindOutcome, Object: "kv", Entry: "Write", Params: []any{1, 1}},
				{Kind: 3, Object: "KV", Entry: "state", Params: []any{uint64(3), "B"}},
				{Kind: KindOutcome, Object: "kv", Entry: "Write", Params: []any{2, 2}},
			} {
				if err := appendFrame(&seg1, rec); err != nil {
					t.Fatal(err)
				}
			}
			write(segmentName(1), seg1.Bytes())
			if !tc.final {
				if err := appendFrame(&seg2, &Record{Kind: KindOutcome, Object: "kv", Entry: "Write", Params: []any{3, 3}}); err != nil {
					t.Fatal(err)
				}
				write(segmentName(4), seg2.Bytes())
			}
			write(snapshotName(9)+tmpSuffix, []byte("unpublished"))
			write(snapshotName(0), []byte("undecodable"))
			fs.SyncDir("data")
			before := dirSizes(fs, "data")

			_, _, err := Open("data", Options{FS: fs})
			if !errors.Is(err, ErrRetiredLayout) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrRetiredLayout and not ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), "remove this member's data dir") {
				t.Fatalf("error does not name the remedy: %v", err)
			}
			if after := dirSizes(fs, "data"); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
			}
		})
	}
}

// TestSnapshotDefersUntilRecoverReturns: a participant is unclaimed until
// its Recover has returned — Snapshot hook in place, state whole. A
// snapshot attempted from inside its Replay hook (as another participant's
// appends could trigger one) must defer, not publish a checkpoint without
// this participant's blob and prune its records.
func TestSnapshotDefersUntilRecoverReturns(t *testing.T) {
	fs := NewFailFS()
	opts := StoreOptions{FS: fs, SegmentBytes: 128}
	st, err := OpenStore("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	p := &ledger{}
	j := st.Journal("!ctl:p", JournalOptions{})
	if _, err := j.Recover(p.hooks()); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 10; n++ {
		p.note(t, j, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore("data", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	p2 := &ledger{}
	h := p2.hooks()
	replay := h.Replay
	var during []error
	h.Replay = func(entry string, params []any) error {
		during = append(during, st2.ForceSnapshot())
		return replay(entry, params)
	}
	if _, err := st2.Journal("!ctl:p", JournalOptions{}).Recover(h); err != nil {
		t.Fatal(err)
	}
	for i, err := range during {
		if err == nil || !strings.Contains(err.Error(), "!ctl:p") {
			t.Fatalf("snapshot during replay of record %d = %v, want a deferral naming the participant", i+1, err)
		}
	}
	if len(during) != 10 || p2.high.Load() != 10 {
		t.Fatalf("replayed %d records to high=%d, want 10 and 10", len(during), p2.high.Load())
	}
	if err := st2.ForceSnapshot(); err != nil {
		t.Fatalf("ForceSnapshot once Recover returned: %v", err)
	}
}

// TestSnapshotCadenceCountsRecoveredRecords: SnapshotEvery bounds what a
// restart replays, so records recovered at open count towards it. A store
// crashing before its tenth append, over and over, still checkpoints.
func TestSnapshotCadenceCountsRecoveredRecords(t *testing.T) {
	fs := NewFailFS()
	opts := StoreOptions{FS: fs, SnapshotEvery: 10}
	n := uint64(0)
	for incarnation := 1; incarnation <= 3; incarnation++ {
		st, err := OpenStore("data", opts)
		if err != nil {
			t.Fatal(err)
		}
		p := &ledger{}
		j := st.Journal("!ctl:p", JournalOptions{})
		replayed, err := j.Recover(p.hooks())
		if err != nil {
			t.Fatal(err)
		}
		if replayed >= 10 {
			t.Fatalf("incarnation %d replayed %d records at SnapshotEvery 10", incarnation, replayed)
		}
		if p.high.Load() != n {
			t.Fatalf("incarnation %d recovered high=%d, want %d", incarnation, p.high.Load(), n)
		}
		for i := 0; i < 6; i++ {
			n++
			p.note(t, j, n)
		}
		if err := st.Close(); err != nil { // waits for an in-flight snapshot
			t.Fatal(err)
		}
	}
}

// TestCheckpointsInRegistrationOrder: a snapshot asks participants for their
// checkpoints in the order they registered, every time — so a participant
// can rely on every one registered before it having given its checkpoint
// already (the node's ack ledger, registered after the objects it answers
// for, does: internal/rpc TestAckCheckpointWaitsForDurableAcks).
func TestCheckpointsInRegistrationOrder(t *testing.T) {
	st, err := OpenStore("data", StoreOptions{FS: NewFailFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var order []string
	names := []string{"zeta", "alpha", "mid"} // neither sorted nor reverse-sorted
	for _, name := range names {
		name := name
		if _, err := st.Journal(name, JournalOptions{}).Recover(RecoverHooks{
			Snapshot: func() ([]byte, error) { order = append(order, name); return nil, nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	const snapshots = 4
	var want []string
	for i := 0; i < snapshots; i++ {
		if err := st.ForceSnapshot(); err != nil {
			t.Fatal(err)
		}
		want = append(want, names...)
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("checkpoint hooks ran in order %v over %d snapshots, want %v", order, snapshots, want)
	}
}
