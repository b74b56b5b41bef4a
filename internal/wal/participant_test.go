package wal

import (
	"bytes"
	"encoding/gob"
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

// dirContents maps every file of dir to its bytes.
func dirContents(fs *FailFS, dir string) map[string]string {
	names, _ := fs.List(dir)
	out := make(map[string]string, len(names))
	for _, name := range names {
		out[name] = string(fs.bytesOf(dir + "/" + name))
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
	before := dirContents(fs, "data")
	err = st2.ForceSnapshot()
	if err == nil || !strings.Contains(err.Error(), "!ctl:p") {
		t.Fatalf("ForceSnapshot with !ctl:p unrecovered = %v, want a deferral naming it", err)
	}
	if after := dirContents(fs, "data"); fmt.Sprint(after) != fmt.Sprint(before) {
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

// The shapes builds before the format marker wrote, gob-encoded inside the
// same length|CRC frame: a record (kind 1 outcomes, kind 2 acks, kind 3
// consensus state) and a snapshot with its Dedup table.
type gobRecord struct {
	Kind    Kind
	Object  string
	Entry   string
	Params  []any
	Client  string
	Seq     uint64
	Results []any
}

type gobSnapshot struct {
	LSN     uint64
	Objects map[string][]byte
	Dedup   []struct {
		Client  string
		Seq     uint64
		Results []any
	}
}

func gobFrames(t *testing.T, vs ...any) []byte {
	t.Helper()
	var out []byte
	for _, v := range vs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		out = append(out, crcFrame(buf.Bytes())...)
	}
	return out
}

// TestOpenRefusesRetiredLayoutUntouched: a directory an older build wrote
// holds gob frames and no format marker. Open refuses it with
// ErrRetiredLayout, never ErrCorrupt (which would cut the journal as a torn
// tail), and changes no byte of it: not the *.tmp, not the snapshot it
// cannot read — the only copy of what that snapshot covers — and it adds
// no marker or segment.
func TestOpenRefusesRetiredLayoutUntouched(t *testing.T) {
	outcome := func(n int) *gobRecord {
		return &gobRecord{Kind: KindOutcome, Object: "kv", Entry: "Write", Params: []any{n, n}}
	}
	for _, tc := range []struct {
		name string
		segs [][]any // segment contents, first LSN 1, 4, ...
	}{
		{"final segment", [][]any{{outcome(1), &gobRecord{Kind: 3, Object: "KV", Entry: "state", Params: []any{uint64(3), "B"}}, outcome(2)}}},
		{"sealed segment", [][]any{{outcome(1), &gobRecord{Kind: 3, Object: "KV", Entry: "state"}, outcome(2)}, {outcome(3)}}},
		{"ack ledger", [][]any{{outcome(3), &gobRecord{Kind: 2, Object: "kv", Entry: "Write", Client: "c", Seq: 3, Results: []any{"r3"}}}}},
		{"snapshot only", nil},
	} {
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
			for i, recs := range tc.segs {
				write(segmentName(uint64(1+3*i)), gobFrames(t, recs...))
			}
			snap := &gobSnapshot{LSN: 2, Objects: map[string][]byte{"kv": []byte("kv@2")}}
			snap.Dedup = append(snap.Dedup, struct {
				Client  string
				Seq     uint64
				Results []any
			}{"c", 1, []any{"t1"}})
			write(snapshotName(2), gobFrames(t, snap))
			write(snapshotName(9)+tmpSuffix, []byte("unpublished"))
			write(snapshotName(0), []byte("undecodable"))
			fs.SyncDir("data")
			before := dirContents(fs, "data")

			_, _, err := Open("data", Options{FS: fs})
			if !errors.Is(err, ErrRetiredLayout) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrRetiredLayout and not ErrCorrupt", err)
			}
			for _, remedy := range []string{"remove this member's data dir", "rejoins its group", "standalone member"} {
				if !strings.Contains(err.Error(), remedy) {
					t.Fatalf("error does not say %q: %v", remedy, err)
				}
			}
			if after := dirContents(fs, "data"); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("refused Open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// crashFS pulls the plug on its FailFS at the n-th durability event — a
// file create, a file sync or a directory sync — and fails that event and
// every later one: the process is dead from there on.
type crashFS struct {
	*FailFS
	n, seen int
}

var errPowerCut = errors.New("power cut")

func (c *crashFS) event() error {
	c.seen++
	if c.seen == c.n {
		c.FailFS.Crash()
	}
	if c.seen >= c.n {
		return errPowerCut
	}
	return nil
}

func (c *crashFS) Create(name string) (File, error) {
	if err := c.event(); err != nil {
		return nil, err
	}
	return c.FailFS.Create(name)
}

func (c *crashFS) SyncDir(dir string) error {
	if err := c.event(); err != nil {
		return err
	}
	return c.FailFS.SyncDir(dir)
}

// TestFirstOpenCrashAtEveryEvent: a power cut at any durability event of a
// fresh directory's first open and first appends leaves a directory this
// build reopens — empty, or holding every record that was synced — and
// never refuses as ErrRetiredLayout or ErrCorrupt.
func TestFirstOpenCrashAtEveryEvent(t *testing.T) {
	for n := 1; ; n++ {
		c := &crashFS{FailFS: NewFailFS(), n: n}
		c.SyncHook = func(string) error { return c.event() }
		synced := 0
		if st, err := OpenStore("data", StoreOptions{FS: c}); err == nil {
			j := st.Journal("kv", JournalOptions{})
			for i := 1; i <= 3; i++ {
				lsn, err := j.Append("note", []any{uint64(i)})
				if err != nil || st.WaitSynced(lsn) != nil {
					break
				}
				synced = i
			}
			_ = st.Close()
		}
		reached := c.seen >= n
		c.SyncHook = nil
		c.FailFS.Crash()

		st, err := OpenStore("data", StoreOptions{FS: c.FailFS})
		if err != nil {
			t.Fatalf("crash at event %d: reopen = %v", n, err)
		}
		p := &ledger{}
		if _, err := st.Journal("kv", JournalOptions{}).Recover(p.hooks()); err != nil {
			t.Fatalf("crash at event %d: recover = %v", n, err)
		}
		if len(p.replayed) < synced {
			t.Fatalf("crash at event %d: replayed %v, want at least the %d synced", n, p.replayed, synced)
		}
		for i, got := range p.replayed {
			if got != uint64(i+1) {
				t.Fatalf("crash at event %d: replayed %v, want 1, 2, ...", n, p.replayed)
			}
		}
		_ = st.Close()
		if !reached {
			if n < 6 {
				t.Fatalf("only %d durability events in a first open and three synced appends", n-1)
			}
			t.Logf("%d durability events, each a crash point", n-1)
			return
		}
	}
}

// TestBackgroundSnapshotErrorInStats: a snapshot the append cadence starts
// in the background reports its failure through Stats — here the deferral
// an unclaimed participant causes.
func TestBackgroundSnapshotErrorInStats(t *testing.T) {
	fs := NewFailFS()
	st, err := OpenStore("data", StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Journal("orphan", JournalOptions{}).Append("note", []any{uint64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore("data", StoreOptions{FS: fs, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &ledger{}
	j := st.Journal("kv", JournalOptions{})
	if _, err := j.Recover(p.hooks()); err != nil {
		t.Fatal(err)
	}
	p.note(t, j, 1)
	st.snapWG.Wait()
	if err := st.Stats().SnapshotErr; err == nil || !strings.Contains(err.Error(), "deferred") || !strings.Contains(err.Error(), "orphan") {
		t.Fatalf("Stats().SnapshotErr = %v, want the deferral naming orphan", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
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
