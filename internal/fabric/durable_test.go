package fabric

// The fabric's ack protocol (docs/DURABILITY.md §4): a shard's manager
// stages an append's record, the goroutine serving the call waits for the
// disk, and nothing that reveals ledger state — an answer, fresh or dup, an
// audit, a checkpoint, the settle gate — runs ahead of it.

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/wal"
)

// syncGate holds a FailFS's fsyncs open: until pass is set, every file Sync
// announces itself on entered and completes with what the test sends on
// verdict.
type syncGate struct {
	entered chan string
	verdict chan error
	pass    atomic.Bool
}

func holdSyncs(fs *wal.FailFS) *syncGate {
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

// release answers the fsync the test holds and lets every later one
// through. Call it only once a sync has entered; calling it again is a
// no-op.
func (g *syncGate) release() {
	if !g.pass.Swap(true) {
		g.verdict <- nil
	}
}

// answer is one Host.CallCtx outcome.
type answer struct {
	res []core.Value
	err error
}

// isAck checks an Append answer's wire tuple (status, member, epoch, count,
// info) against an acknowledgement by "solo" at epoch 0.
func (a answer) isAck(t *testing.T, what string, count uint64, info string) {
	t.Helper()
	if a.err != nil {
		t.Fatalf("%s: %v", what, a.err)
	}
	want := []core.Value{statusOK, "solo", uint64(0), count, info}
	if len(a.res) != len(want) {
		t.Fatalf("%s: answer %v, want %v", what, a.res, want)
	}
	for i := range want {
		if a.res[i] != want[i] {
			t.Fatalf("%s: answer %v, want %v", what, a.res, want)
		}
	}
}

// durableWorld is one member on a FailFS store whose ledger has a single
// shard, so any two keys share a manager.
type durableWorld struct {
	t     *testing.T
	fs    *wal.FailFS
	store *wal.Store
	host  *Host
}

func openDurableWorld(t *testing.T, fs *wal.FailFS) *durableWorld {
	t.Helper()
	store, err := wal.OpenStore("n", wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHost(HostOptions{
		ID: "solo", Spec: specFor(0, map[string]string{"solo": "127.0.0.1:1"}), Shards: 1, Store: store,
		Logf: func(format string, args ...any) { t.Logf(format, args...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })
	return &durableWorld{t: t, fs: fs, store: store, host: host}
}

// call runs one wire entry on a goroutine of its own, as rpc's serve path
// does.
func (w *durableWorld) call(entry string, params ...core.Value) <-chan answer {
	out := make(chan answer, 1)
	ctx := testCtx(w.t)
	go func() {
		res, err := w.host.CallCtx(ctx, entry, params...)
		out <- answer{res, err}
	}()
	return out
}

func (w *durableWorld) append(key, client string, seq uint64) <-chan answer {
	return w.call("Append", key, client, seq, []byte(nil))
}

// frontier asserts the store's staged and durable LSNs.
func (w *durableWorld) frontier(appended, synced uint64) {
	w.t.Helper()
	if got := w.store.AppendedLSN(); got != appended {
		w.t.Fatalf("store AppendedLSN = %d, want %d", got, appended)
	}
	if got := w.store.SyncedLSN(); got != synced {
		w.t.Fatalf("store SyncedLSN = %d, want %d", got, synced)
	}
}

// silent fails if any of the answers arrives within a grace period. The
// period only gives a host that answers early the time to do it: a correct
// one passes however short it is.
func silent(t *testing.T, what string, chans ...<-chan answer) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	for _, ch := range chans {
		select {
		case a := <-ch:
			t.Fatalf("%s: answered %v (err %v) ahead of the disk", what, a.res, a.err)
		default:
		}
	}
}

// stagedAppends brings a world to the point the protocol is about: an fsync
// held open under an Append for k1 (the serving goroutine is the flusher), an
// Append for k2 — same shard — staged behind it, and a retry of the first.
func stagedAppends(t *testing.T) (w *durableWorld, gate *syncGate, first, second, retry <-chan answer) {
	t.Helper()
	w = openDurableWorld(t, wal.NewFailFS())
	gate = holdSyncs(w.fs)
	first = w.append("k1", "cA", 0)
	<-gate.entered
	second = w.append("k2", "cB", 0)
	// The shard's manager is not waiting for the disk: it takes the second
	// append and stages its record while the first one's fsync is in flight.
	testutil.WaitUntil(t, "the second append's record to be staged", func() bool { return w.store.AppendedLSN() == 2 })
	retry = w.append("k1", "cA", 0)
	silent(t, "append under a held fsync", first, second, retry)
	w.frontier(2, 0)
	return w, gate, first, second, retry
}

// TestAppendAnswerWaitsForDisk: no Append answer, fresh or dup, leaves a
// member before its record is on stable storage, and no Audit shows it
// either; once the disk has it, every caller gets the count it executed at.
func TestAppendAnswerWaitsForDisk(t *testing.T) {
	w, gate, first, second, retry := stagedAppends(t)
	audit := w.call("Audit", "k2")
	silent(t, "audit of a staged append", audit)

	gate.verdict <- nil // the first append's fsync covers LSN 1 alone
	(<-first).isAck(t, "first append", 1, "")
	<-gate.entered // one more covers everything staged behind it
	silent(t, "append staged behind the first fsync", second, retry, audit)
	w.frontier(2, 1)
	gate.verdict <- nil
	(<-second).isAck(t, "second append", 1, "")
	(<-retry).isAck(t, "retry of the first append", 1, "dup")
	if a := <-audit; a.err != nil || a.res[0] != statusOK || !strings.Contains(string(a.res[1].([]byte)), `"count":1`) {
		t.Fatalf("audit: %v, %v", a.res, a.err)
	}
	w.frontier(2, 2)
}

// TestCrashBeforeSyncLosesOnlyUnacknowledged: a crash while the record is
// staged acknowledges nobody, the reopened ledger holds neither append, and
// the client's retry executes fresh at the count the lost execution had.
func TestCrashBeforeSyncLosesOnlyUnacknowledged(t *testing.T) {
	w, gate, first, second, retry := stagedAppends(t)
	w.fs.Crash()
	gate.verdict <- errors.New("power lost")
	for _, ch := range []<-chan answer{first, second, retry} {
		if a := <-ch; a.err == nil {
			t.Fatalf("an append was acknowledged across a crash: %v", a.res)
		}
	}
	_ = w.host.Close()
	gate.pass.Store(true)

	w = openDurableWorld(t, w.fs)
	if rec := w.host.Recovery(); rec != (Recovery{}) {
		t.Fatalf("recovery = %+v, want an empty ledger", rec)
	}
	for _, key := range []string{"k1", "k2"} {
		if a := <-w.call("Audit", key); a.err != nil || a.res[0] != statusNone {
			t.Fatalf("audit %s after the crash: %v, %v", key, a.res, a.err)
		}
	}
	(<-w.append("k1", "cA", 0)).isAck(t, "retry after the crash", 1, "")
	(<-w.append("k2", "cB", 0)).isAck(t, "retry after the crash", 1, "")
}

// TestFailedSyncStopsAcknowledgements: an fsync failure reaches every caller
// waiting on it as an error that names its cause, acknowledges nothing, and
// is sticky — the member refuses appends until it restarts.
func TestFailedSyncStopsAcknowledgements(t *testing.T) {
	w, gate, first, second, retry := stagedAppends(t)
	errDisk := errors.New("injected: disk gone")
	gate.pass.Store(true) // a further fsync would succeed: none may be tried
	gate.verdict <- errDisk
	for _, ch := range []<-chan answer{first, second, retry} {
		if a := <-ch; !errors.Is(a.err, errDisk) || a.res != nil {
			t.Fatalf("answer %v, err %v: want no answer and the fsync failure", a.res, a.err)
		}
	}
	if a := <-w.append("k3", "cC", 0); !errors.Is(a.err, errDisk) || a.res != nil {
		t.Fatalf("append after the failure: answer %v, err %v: want it refused", a.res, a.err)
	}
	if a := <-w.call("Audit", "k1"); !errors.Is(a.err, errDisk) {
		t.Fatalf("audit after the failure: answer %v, err %v: it would show an append the disk never took", a.res, a.err)
	}
	w.frontier(2, 0)
}

// TestCheckpointWaitsForStagedAppends: a checkpoint taken while an append is
// staged holds that append, so neither the Snapshot hook nor the store
// snapshot around it publishes until the record is durable; a crash right
// after the snapshot recovers per-key counts with no hole and no repeat.
func TestCheckpointWaitsForStagedAppends(t *testing.T) {
	w := openDurableWorld(t, wal.NewFailFS())
	(<-w.append("k", "c0", 0)).isAck(t, "append 1", 1, "")
	(<-w.append("k", "c1", 0)).isAck(t, "append 2", 2, "")
	gate := holdSyncs(w.fs)
	third := w.append("k", "c2", 0)
	<-gate.entered
	w.frontier(3, 2)

	hook := make(chan answer, 1)
	go func() {
		blob, err := w.host.checkpoint()
		hook <- answer{[]core.Value{blob}, err}
	}()
	snapshot := make(chan answer, 1)
	go func() { snapshot <- answer{err: w.store.ForceSnapshot()} }()
	silent(t, "checkpoint holding a staged append", hook, snapshot)
	if names, _ := w.fs.List("n"); len(names) != len(segments(t, w.fs, "n")) {
		t.Fatalf("store holds %v while LSN 3 is not durable, want log segments only", names)
	}

	gate.pass.Store(true) // the snapshot's own file syncs go straight through
	gate.verdict <- nil
	(<-third).isAck(t, "append 3", 3, "")
	if a := <-hook; a.err != nil || !strings.Contains(string(a.res[0].([]byte)), `"count":3`) {
		t.Fatalf("checkpoint: %s, %v", a.res[0], a.err)
	}
	if a := <-snapshot; a.err != nil {
		t.Fatalf("snapshot: %v", a.err)
	}
	_ = w.host.Close()
	w.fs.Crash()

	w = openDurableWorld(t, w.fs)
	if rec := w.host.Recovery(); rec != (Recovery{Keys: 1, CheckpointLSN: 3}) {
		t.Fatalf("recovery = %+v, want the checkpoint at LSN 3 and nothing above it", rec)
	}
	(<-w.append("k", "c2", 0)).isAck(t, "retry of append 3", 3, "dup")
	(<-w.append("k", "c0", 1)).isAck(t, "append 4", 4, "")
}

// TestSettledLevelJournaledBeforeGateOpens: a peer's settled level is
// published only once its record is durable, so the fresh-create gate never
// opens on a level a crash would forget.
func TestSettledLevelJournaledBeforeGateOpens(t *testing.T) {
	fs := wal.NewFailFS()
	store, err := wal.OpenStore("n", wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h := bareHost(t, specFor(1, map[string]string{"solo": "127.0.0.1:1", "peer": "127.0.0.1:2"}))
	defer h.closeLedger()
	h.logf = t.Logf
	h.journal = store.Journal(journalObject, wal.JournalOptions{})
	if h.gateOK(1) {
		t.Fatal("gate open at epoch 1 before the peer settled")
	}
	gate := holdSyncs(fs)
	done := make(chan struct{})
	go func() { defer close(done); h.recordSettled("peer", 1) }()
	<-gate.entered
	if got := store.AppendedLSN(); got != 1 {
		t.Fatalf("store AppendedLSN = %d, want the settled record staged at 1", got)
	}
	if h.gateOK(1) {
		t.Fatal("gate opened on a settled level whose record is not durable")
	}
	gate.verdict <- nil
	<-done
	if !h.gateOK(1) {
		t.Fatal("gate still closed after the settled record became durable")
	}

	// A level whose record the disk refuses is never published.
	done = make(chan struct{})
	go func() { defer close(done); h.recordSettled("peer", 2) }()
	<-gate.entered
	gate.verdict <- errors.New("injected: disk gone")
	<-done
	if h.gateOK(2) {
		t.Fatal("gate opened on a settled level the journal lost")
	}
}

// TestRingReadableWhileAdvanceSyncs: adopting a ring journals an advance
// record, and the node waits for it outside its lock. While that fsync is
// held, Status answers at once with the old ring, the Reshard that
// carries the new one waits, and the new ring is installed once the record
// is durable.
func TestRingReadableWhileAdvanceSyncs(t *testing.T) {
	w := openDurableWorld(t, wal.NewFailFS())
	gate := holdSyncs(w.fs)
	old := w.host.Spec()
	next := specFor(1, map[string]string{"solo": "127.0.0.1:1"})
	reshard := w.call("Reshard", next)
	<-gate.entered
	defer gate.release()

	spec := func() string {
		t.Helper()
		var a answer
		select {
		case a = <-w.call("Status"):
		case <-time.After(time.Second):
			t.Fatal("Status blocked behind the advance fsync")
		}
		if a.err != nil {
			t.Fatalf("Status: %v", a.err)
		}
		return a.res[1].(string)
	}
	if got := spec(); got != old {
		t.Fatalf("Status while the advance syncs = %q, want the old ring %q", got, old)
	}
	silent(t, "Reshard with its advance record unsynced", reshard)

	gate.release()
	if a := <-reshard; a.err != nil || a.res[1] != next {
		t.Fatalf("Reshard = %v, %v; want ok with the new ring", a.res, a.err)
	}
	if got := spec(); got != next {
		t.Fatalf("Status after the advance synced = %q, want %q", got, next)
	}
}

// TestCheckpointCarriesStagedAdvance: a store snapshot taken while an
// advance record is staged but not yet durable covers that record, so its
// checkpoint carries the new ring and waits for the record; a restart from
// that snapshot comes back on the new ring, never the one it replaced.
func TestCheckpointCarriesStagedAdvance(t *testing.T) {
	w := openDurableWorld(t, wal.NewFailFS())
	gate := holdSyncs(w.fs)
	next := specFor(1, map[string]string{"solo": "127.0.0.1:1"})
	reshard := w.call("Reshard", next)
	<-gate.entered
	defer gate.release()
	w.frontier(1, 0)

	snapshot := make(chan answer, 1)
	go func() { snapshot <- answer{err: w.store.ForceSnapshot()} }()
	silent(t, "snapshot over an unsynced advance", reshard, snapshot)

	gate.release()
	if a := <-reshard; a.err != nil || a.res[1] != next {
		t.Fatalf("Reshard = %v, %v; want ok with the new ring", a.res, a.err)
	}
	if a := <-snapshot; a.err != nil {
		t.Fatalf("snapshot: %v", a.err)
	}
	_ = w.host.Close()
	w.fs.Crash()

	w = openDurableWorld(t, w.fs)
	if rec := w.host.Recovery(); rec.CheckpointLSN < 1 {
		t.Fatalf("recovery = %+v, want a checkpoint covering the advance at LSN 1", rec)
	}
	if got := w.host.Spec(); got != next {
		t.Fatalf("ring after restart = %q, want the adopted %q", got, next)
	}
}

// TestAdvanceAfterCloseAnswersClosed: a Host closed while an advance record
// syncs answers the adopt with ErrClosed, as it would had the close come
// first, and installs nothing.
func TestAdvanceAfterCloseAnswersClosed(t *testing.T) {
	w := openDurableWorld(t, wal.NewFailFS())
	gate := holdSyncs(w.fs)
	old := w.host.Spec()
	reshard := w.call("Reshard", specFor(1, map[string]string{"solo": "127.0.0.1:1"}))
	<-gate.entered
	defer gate.release()
	if err := w.host.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	gate.release()
	if a := <-reshard; !errors.Is(a.err, ErrClosed) {
		t.Fatalf("Reshard across Close = %v, %v; want ErrClosed", a.res, a.err)
	}
	if got := w.host.Spec(); got != old {
		t.Fatalf("ring after Close = %q, want the old %q", got, old)
	}
}
