package replica

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/rpc"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/wal"
)

// The tests in this file run members on stores that snapshot and prune
// (every other replica test opens its store with SnapshotEvery 0): the
// group's consensus state must come back from the store's checkpoint plus
// the records above its floor, however many floors went by.

// snapStore opens (or reopens, after fs.Crash) a member's store the way a
// deployed alpsd does, scaled down: a snapshot every 64 records, 4 KiB
// segments, so a few hundred writes cross many snapshots and prunes.
func snapStore(t testing.TB, fs *wal.FailFS) *wal.Store {
	t.Helper()
	st, err := wal.OpenStore("data", wal.StoreOptions{FS: fs, SnapshotEvery: 64, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// logLines collects a member's Logf output.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) find(substr string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return line, true
		}
	}
	return "", false
}

// hardState is what a member must get back from its store.
type hardState struct {
	Term      uint64
	Vote      string
	SnapIndex uint64
	Log       []entry
}

func (r *Replica) hardState() hardState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return hardState{r.term, r.votedFor, r.snapIndex, append([]entry{}, r.log...)}
}

// recoveredLine parses the "recovered t… vote=… log=[…]" line recover()
// logs before the member contacts anyone.
func recoveredLine(t *testing.T, l *logLines) (term uint64, vote string, first, last uint64) {
	t.Helper()
	line, ok := l.find("recovered t")
	if !ok {
		t.Fatal("the restarted member logged no recovery line: it started empty")
	}
	var id string
	if _, err := fmt.Sscanf(line, "replica %s recovered t%d vote=%q log=[%d..%d]", &id, &term, &vote, &first, &last); err != nil {
		t.Fatalf("unparseable recovery line %q: %v", line, err)
	}
	return term, vote, first, last
}

// TestCrashRestartAcrossStoreSnapshots is the restart promise of
// docs/REPLICATION.md §6 on stores that snapshot: a follower, then the
// leader, is crashed (power-loss model) after its store has snapshotted and
// pruned many times, the group keeps writing, and the member restarts over
// its own store. It must come back with the term, vote and log it had —
// keep the vote it gave — catch up from the leader's log without a
// snapshot install, and the whole history, through both outages, must be
// linearizable with every acknowledged write applied exactly once.
func TestCrashRestartAcrossStoreSnapshots(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 18})
	ids := []string{"A", "B", "C"}
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	const thresh = 200 // log compaction threshold
	disks := map[string]*wal.FailFS{}
	stores := map[string]*wal.Store{}
	members := map[string]*member{}
	start := func(id string) (*member, *logLines) {
		logs := &logLines{}
		stores[id] = snapStore(t, disks[id])
		m := startMember(t, nw, id, peers, 18, groupOpts{store: stores[id], thresh: thresh, logf: logs.logf})
		members[id] = m
		return m, logs
	}
	for _, id := range ids {
		disks[id] = wal.NewFailFS()
		start(id)
	}
	live := func() []*member {
		var out []*member
		for _, id := range ids {
			if members[id] != nil {
				out = append(out, members[id])
			}
		}
		return out
	}
	waitLeader(t, live(), 2*time.Second)

	// Two synchronous sessions over three keys; every acknowledged
	// increment lands in the history the oracle checks at the end.
	keys := []string{"x", "y", "z"}
	clients := []*rpc.Remote{groupClient(t, nw, "alice", ids), groupClient(t, nw, "bob", ids)}
	names := []string{"alice", "bob"}
	seqs := []map[string]int{{}, {}}
	var (
		opsMu sync.Mutex
		ops   []conformance.RepOp
	)
	write := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, len(clients))
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < n/len(clients); i++ {
					key := keys[(i+c)%len(keys)]
					t0 := time.Now().UnixNano()
					res, err := clients[c].Call("KV", "Inc", key)
					t1 := time.Now().UnixNano()
					if err != nil {
						errs <- fmt.Errorf("%s: Inc %s: %w", names[c], key, err)
						return
					}
					op := conformance.RepOp{Key: key, Client: names[c], Seq: seqs[c][key], Value: res[0].(uint64), Start: t0, End: t1}
					seqs[c][key]++
					opsMu.Lock()
					ops = append(ops, op)
					opsMu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	// settle waits for every live member to hold and apply the leader's
	// whole log, without writing.
	settle := func() *member {
		t.Helper()
		var lead *member
		testutil.WaitUntil(t, "every live member to hold and apply the leader's log", func() bool {
			lead = waitLeader(t, live(), 2*time.Second)
			hs := lead.rep.hardState()
			tail := hs.SnapIndex + uint64(len(hs.Log))
			for _, m := range live() {
				if hs := m.rep.hardState(); hs.SnapIndex+uint64(len(hs.Log)) != tail || m.rep.Applied() != tail {
					return false
				}
			}
			return true
		})
		return lead
	}
	// quiesce first writes until every live member has recently compacted —
	// so the writes made during the coming outage cannot push any possible
	// leader's log floor past the crashed member's tail — then settles.
	quiesce := func() *member {
		t.Helper()
		for tries := 0; ; tries++ {
			roomy := true
			for _, m := range live() {
				if hs := m.rep.hardState(); m.rep.Applied()-hs.SnapIndex >= thresh/2 {
					roomy = false
				}
			}
			if roomy {
				return settle()
			}
			if tries > 2*thresh {
				t.Fatal("members never compacted near one another")
			}
			write(2)
		}
	}
	// outage crashes victim at a quiet moment, writes through its absence,
	// restarts it from its own disk and holds it to the restart promise.
	outage := func(victim *member) {
		t.Helper()
		id := victim.id
		victim.crash(nw)
		pre := victim.rep.hardState()
		// Nothing is in flight, so closing the store (which only waits out
		// a background snapshot) leaves the disk as the crash finds it.
		if err := stores[id].Close(); err != nil {
			t.Fatal(err)
		}
		disks[id].Crash()
		members[id] = nil
		if segs, _ := disks[id].List("data"); !strings.Contains(strings.Join(segs, " "), "snap-") {
			t.Fatalf("%s's store never snapshotted (%v); the restart would not cross a floor", id, segs)
		}
		write(60)

		m, logs := start(id)
		term, vote, first, last := recoveredLine(t, logs)
		t.Logf("%s: crashed at t%d vote=%q log=[%d..%d]; recovered t%d vote=%q log=[%d..%d]",
			id, pre.Term, pre.Vote, pre.SnapIndex+1, pre.SnapIndex+uint64(len(pre.Log)), term, vote, first, last)
		if term < pre.Term || term == 0 {
			t.Fatalf("%s recovered term %d, below the term %d it crashed in", id, term, pre.Term)
		}
		if term == pre.Term && vote != pre.Vote {
			t.Fatalf("%s recovered vote %q for t%d, but had voted %q", id, vote, term, pre.Vote)
		}
		if want := pre.SnapIndex + uint64(len(pre.Log)); last != want || first > last+1 {
			t.Fatalf("%s recovered log [%d..%d], want a contiguous log ending at %d", id, first, last, want)
		}
		// The promise a vote makes: no second candidate gets this member's
		// vote in a term it already voted in, crash or no crash.
		if vote != "" {
			reply, err := (&control{r: m.rep}).requestVote([]any{term, "rival", ^uint64(0), ^uint64(0)})
			if err != nil {
				t.Fatal(err)
			}
			if reply[1].(bool) {
				t.Fatalf("%s voted %q in t%d before the crash and granted %q the same term after it", id, vote, term, "rival")
			}
		}
		lead := settle()
		if line, installed := logs.find("accepted snapshot"); installed {
			t.Fatalf("%s needed a snapshot install (%s) although leader %s still held the suffix", id, line, lead.id)
		}
		for _, key := range keys {
			if got, want := m.obj.value(key), lead.obj.value(key); got != want {
				t.Fatalf("%s caught up to %s=%d, leader %s has %d", id, key, got, lead.id, want)
			}
		}
	}

	write(400)
	lead := quiesce()
	for _, m := range live() {
		if m != lead {
			outage(m) // a follower first
			break
		}
	}
	write(200)
	outage(quiesce()) // then the leader
	write(300)
	settle()

	if len(ops) < 1000 {
		t.Fatalf("history has %d acknowledged writes, want >= 1000", len(ops))
	}
	if divs := conformance.CheckLinearizable(ops); len(divs) != 0 {
		for _, d := range divs {
			t.Error(d)
		}
		t.Fatalf("history not linearizable across the two outages (%d divergences)", len(divs))
	}
	acked := map[string]uint64{}
	for _, op := range ops {
		acked[op.Key]++
	}
	for _, m := range live() {
		for _, key := range keys {
			if got := m.obj.value(key); got != acked[key] {
				t.Errorf("%s holds %s=%d after %d acknowledged increments", m.id, key, got, acked[key])
			}
		}
	}
}

// TestFoldIdempotentOverFuzzyFloor pins the window a store snapshot leaves
// open: the store reads its floor BEFORE it asks the group for a
// checkpoint, so records journaled in between are both reflected in the
// checkpoint and replayed on top of it. Here that window holds a term
// change, a conflict truncation, fresh appends and a log compaction — and
// the member must still recover to exactly the state it crashed with,
// including the vote it gave (and must keep) in the new term.
func TestFoldIdempotentOverFuzzyFloor(t *testing.T) {
	fs := wal.NewFailFS()
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	boot := func(st *wal.Store) (*Replica, *control) {
		obj := newKV()
		r, err := New(Config{
			ID: "A", Group: "KV", Peers: peers, Store: st,
			Dial:              func(string) (net.Conn, error) { return nil, fmt.Errorf("peers are driven by hand") },
			ElectionTimeout:   time.Hour, // never campaigns
			snapshotThreshold: 4,
			Snapshot:          obj.snapshot, Restore: obj.restore,
		}, obj)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r, &control{r: r}
	}
	entries := func(term uint64, from, to int) []any {
		var out []any
		for i := from; i <= to; i++ {
			out = append(out, encodeEntry(entry{Term: term, Entry: "Inc", Client: "cli", Seq: uint64(i), Params: []any{"k"}}))
		}
		return out
	}
	call := func(c *control, what string, params ...any) []any {
		t.Helper()
		reply, err := c.CallCtx(context.Background(), what, params...)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return reply
	}
	waitSnapIndex := func(r *Replica, want uint64) {
		t.Helper()
		testutil.WaitUntil(t, fmt.Sprintf("log compaction to reach %d", want), func() bool { return r.hardState().SnapIndex >= want })
	}

	st := snapStore(t, fs)
	// The window is a participant registered before the group: the store
	// asks for its checkpoint after reading the floor and before the group's.
	var window func()
	if _, err := st.Journal("window", wal.JournalOptions{}).Recover(wal.RecoverHooks{
		Snapshot: func() ([]byte, error) {
			if window != nil {
				window()
			}
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	r, c := boot(st)
	// Leader B, term 1: entries 1..12, of which 1..6 commit (and compact).
	if reply := call(c, "AppendEntries", uint64(1), "B", uint64(0), uint64(0), uint64(6), entries(1, 1, 12)); !reply[1].(bool) {
		t.Fatalf("AppendEntries refused: %v", reply)
	}
	waitSnapIndex(r, 5)

	// Inside the window: C wins term 2 with A's vote, overwrites 10..12
	// with its own 10..14, commits through 12 — A compacts again.
	var floor uint64
	window = func() {
		floor = st.SyncedLSN() // nothing is in flight, so synced == appended == the floor just read
		if reply := call(c, "RequestVote", uint64(2), "C", uint64(12), uint64(1)); !reply[1].(bool) {
			t.Errorf("vote refused: %v", reply)
		}
		if reply := call(c, "AppendEntries", uint64(2), "C", uint64(9), uint64(1), uint64(12), entries(2, 10, 14)); !reply[1].(bool) {
			t.Errorf("conflicting AppendEntries refused: %v", reply)
		}
		waitSnapIndex(r, 11)
	}
	if err := st.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	want := r.hardState()
	if want.Term != 2 || want.Vote != "C" || want.SnapIndex < 11 || want.SnapIndex+uint64(len(want.Log)) != 14 {
		t.Fatalf("setup went wrong: crashed with %+v", want)
	}
	fs.Crash()

	st2 := snapStore(t, fs)
	stats := st2.Stats()
	if stats.SnapshotAt != floor || stats.Outcomes < 7 {
		t.Fatalf("recovery found %+v; want the snapshot at floor %d and the window's >= 7 records above it", stats, floor)
	}
	r2, c2 := boot(st2)
	if got := r2.hardState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered\n %+v\nwant the state the member crashed with\n %+v", got, want)
	}
	if got := r2.Applied(); got != want.SnapIndex {
		t.Fatalf("recovered applied frontier %d, want the compaction floor %d", got, want.SnapIndex)
	}
	if reply := call(c2, "RequestVote", uint64(2), "B", uint64(99), uint64(2)); reply[1].(bool) {
		t.Fatal("A voted C in term 2, crashed, and granted B the same term")
	}
	if reply := call(c2, "RequestVote", uint64(2), "C", uint64(99), uint64(2)); !reply[1].(bool) {
		t.Fatal("A refused to repeat the vote it gave C in term 2")
	}
}

// TestGroupCallsLeaveNoNodeAcks pins the other half of the contract: a
// group joins its node's store as a participant — its records are ordinary
// journal records under its control name — while the group and its
// consensus endpoint own the at-most-once of their calls, so the node never
// ack-journals (and fsyncs a second time) a replicated call or a consensus
// message: the quorum round is their durability.
func TestGroupCallsLeaveNoNodeAcks(t *testing.T) {
	fs := wal.NewFailFS()
	st := snapStore(t, fs)
	nw := simnet.New(simnet.Config{Seed: 19})
	obj := newKV()
	rep, err := New(Config{
		ID: "solo", Group: "KV", Peers: map[string]string{"solo": "solo"}, Store: st,
		ElectionTimeout: 60 * time.Millisecond,
	}, obj)
	if err != nil {
		t.Fatal(err)
	}
	node := rpc.NewNodeWith("solo", rpc.NodeOptions{Durable: st})
	if err := rep.Publish(node); err != nil {
		t.Fatal(err)
	}
	lis, err := nw.Listen("solo")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()
	t.Cleanup(func() { rep.Close(); node.Close() })

	cli := groupClient(t, nw, "cli", []string{"solo"})
	for i := uint64(1); i <= 10; i++ {
		if res, err := cli.Call("KV", "Inc", "k"); err != nil || res[0].(uint64) != i {
			t.Fatalf("Inc %d = %v, %v", i, res, err)
		}
		if i == 5 {
			if err := st.ForceSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep.Close()
	node.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := snapStore(t, fs)
	stats := st2.Stats()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if stats.Acks != 0 || stats.Outcomes < 5 {
		t.Fatalf("store holds %d ack records and %d participant records after 5 replicated calls above the checkpoint; want 0 and >= 5", stats.Acks, stats.Outcomes)
	}
	if _, entries := testutil.AckLedger(t, fs, "data"); entries != 0 {
		t.Fatalf("the node's ack ledger checkpoint holds %d entries after 5 replicated calls, want 0", entries)
	}
}
