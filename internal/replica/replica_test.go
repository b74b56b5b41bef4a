package replica

import (
	"bytes"
	"cmp"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// kvObj is the replicated guinea pig: a keyed counter that also counts
// its own executions, so replay-vs-re-execute — the heart of
// exactly-once — is directly observable from the outside.
type kvObj struct {
	mu    sync.Mutex
	data  map[string]uint64
	execs int
}

func newKV() *kvObj { return &kvObj{data: make(map[string]uint64)} }

func (o *kvObj) CallCtx(_ context.Context, entry string, params ...any) ([]any, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch entry {
	case "Inc":
		key, _ := params[0].(string)
		o.execs++
		o.data[key]++
		return []any{o.data[key]}, nil
	case "Get":
		key, _ := params[0].(string)
		return []any{o.data[key]}, nil
	default:
		return nil, fmt.Errorf("kv: unknown entry %q", entry)
	}
}

func (o *kvObj) value(key string) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.data[key]
}

func (o *kvObj) executions() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.execs
}

func (o *kvObj) snapshot() ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(o.data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (o *kvObj) restore(b []byte) error {
	data := make(map[string]uint64)
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&data); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.data = data
	return nil
}

// member bundles one group member's moving parts for a test.
type member struct {
	id   string
	obj  *kvObj
	node *rpc.Node
	rep  *Replica
}

// crash simulates kill -9: sever the member's network presence, then
// stop its goroutines. Nothing is flushed; whatever the member promised
// before the crash lives only in its wal.Store (if it had one).
func (m *member) crash(nw *simnet.Network) {
	nw.Kill(m.id)
	m.rep.Close()
	m.node.Close()
}

type groupOpts struct {
	store       *wal.Store
	thresh      int // Config.snapshotThreshold; 0 = the constant
	metrics     *rpc.Metrics
	nodeMetrics *rpc.Metrics
	readOnly    func(string) bool
	logf        func(format string, args ...any)
	election    time.Duration // Config.ElectionTimeout; 0 = 60ms
}

func startMember(t testing.TB, nw *simnet.Network, id string, peers map[string]string, seed uint64, o groupOpts) *member {
	t.Helper()
	obj := newKV()
	rep, err := New(Config{
		ID:    id,
		Group: "KV",
		Peers: peers,
		Dial: func(addr string) (net.Conn, error) {
			return nw.DialFrom(id, addr)
		},
		Store:             o.store,
		ElectionTimeout:   cmp.Or(o.election, 60*time.Millisecond),
		Seed:              seed,
		snapshotThreshold: o.thresh,
		Snapshot:          obj.snapshot,
		Restore:           obj.restore,
		Metrics:           o.metrics,
		ReadOnly:          o.readOnly,
		Logf:              o.logf,
	}, obj)
	if err != nil {
		t.Fatal(err)
	}
	node := rpc.NewNodeWith(id, rpc.NodeOptions{Metrics: o.nodeMetrics})
	if err := rep.Publish(node); err != nil {
		t.Fatal(err)
	}
	lis, err := nw.Listen(id)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()
	m := &member{id: id, obj: obj, node: node, rep: rep}
	t.Cleanup(func() {
		m.rep.Close()
		m.node.Close()
	})
	return m
}

func startGroup(t testing.TB, nw *simnet.Network, ids []string, seed uint64, o groupOpts) []*member {
	t.Helper()
	peers := make(map[string]string, len(ids))
	for _, id := range ids {
		peers[id] = id
	}
	members := make([]*member, 0, len(ids))
	for _, id := range ids {
		members = append(members, startMember(t, nw, id, peers, seed, o))
	}
	return members
}

// groupClient is a retrying at-most-once client rotating across the
// group's addresses — the DialMulti pattern, with simnet dials injected.
func groupClient(t *testing.T, nw *simnet.Network, clientID string, addrs []string) *rpc.Remote {
	t.Helper()
	var next atomic.Uint64
	redial := func() (net.Conn, error) {
		var lastErr error
		for range addrs {
			addr := addrs[int(next.Add(1)-1)%len(addrs)]
			conn, err := nw.DialFrom(clientID, addr)
			if err == nil {
				return conn, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("group client: all addresses down: %w", lastErr)
	}
	conn, err := redial()
	if err != nil {
		t.Fatal(err)
	}
	rem := rpc.DialConnWith(conn, rpc.DialOptions{
		ClientID: clientID,
		Redial:   redial,
		Retry: rpc.RetryPolicy{
			Max:            200,
			Backoff:        time.Millisecond,
			MaxBackoff:     25 * time.Millisecond,
			AttemptTimeout: time.Second,
		},
	})
	t.Cleanup(rem.Close)
	return rem
}

func waitLeader(t testing.TB, members []*member, patience time.Duration) *member {
	t.Helper()
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) {
		for _, m := range members {
			if role, _, _ := m.rep.Status(); role == Leader {
				return m
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil
}

func waitValue(t *testing.T, members []*member, key string, want uint64, patience time.Duration) {
	t.Helper()
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) {
		all := true
		for _, m := range members {
			if m.obj.value(key) != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range members {
		t.Logf("%s: %s=%d applied=%d", m.id, key, m.obj.value(key), m.rep.Applied())
	}
	t.Fatalf("group did not converge on %s=%d", key, want)
}

// TestElectCommitApply: the happy path. Three members elect a leader,
// a client's calls commit through the replicated log, every member
// applies the same sequence, and each call executes exactly once.
func TestElectCommitApply(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 1})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 42, groupOpts{})
	waitLeader(t, members, 2*time.Second)

	cli := groupClient(t, nw, "cli-1", []string{"A", "B", "C"})
	for i := uint64(1); i <= 20; i++ {
		res, err := cli.Call("KV", "Inc", "k")
		if err != nil {
			t.Fatalf("Inc %d: %v", i, err)
		}
		if got := res[0].(uint64); got != i {
			t.Fatalf("Inc %d returned %d — a call was lost or double-applied", i, got)
		}
	}
	waitValue(t, members, "k", 20, 2*time.Second)
	for _, m := range members {
		if n := m.obj.executions(); n != 20 {
			t.Errorf("%s executed %d times, want exactly 20", m.id, n)
		}
	}
}

// countingObject is a plain published object with no at-most-once of its
// own: the node's table is what keeps its retries from re-executing.
type countingObject struct{ n atomic.Int64 }

func (c *countingObject) CallCtx(context.Context, string, ...any) ([]any, error) {
	return []any{c.n.Add(1)}, nil
}

// TestConsensusTrafficKeepsClientRetries: the consensus endpoint owns the
// at-most-once of every peer message, so a follower's node takes no table
// entry for them and consensus traffic cannot evict a client's retry. A
// client's seq 1 on a plain object beside a follower's group, then two
// tables' worth of replicated writes and one more, then the same seq from a
// fresh link: the follower's node replays the first response.
func TestConsensusTrafficKeepsClientRetries(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 23})
	nm := &rpc.Metrics{}
	ids := []string{"A", "B", "C"}
	members := startGroup(t, nw, ids, 7, groupOpts{nodeMetrics: nm})
	leader := waitLeader(t, members, 2*time.Second)
	follower := members[0]
	if follower == leader {
		follower = members[1]
	}
	obj := &countingObject{}
	if err := follower.node.PublishCallable("Count", obj); err != nil {
		t.Fatal(err)
	}
	seq1 := func() []any {
		t.Helper()
		conn, err := nw.DialFrom("c", follower.id)
		if err != nil {
			t.Fatal(err)
		}
		rem := rpc.DialConnWith(conn, rpc.DialOptions{ClientID: "c"})
		defer rem.Close()
		res, err := rem.Call("Count", "Tick")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := seq1()

	cli := groupClient(t, nw, "writer", ids)
	const writes = 2*1024 + 1 // the node table's default capacity is 1024
	for i := 0; i < writes; i++ {
		if _, err := cli.Call("KV", "Inc", "k"); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if hits := nm.DedupHits.Value(); hits != 0 {
		t.Fatalf("the nodes answered %d calls from their tables; no peer resends a seq", hits)
	}
	if again := seq1(); fmt.Sprint(again) != fmt.Sprint(first) || obj.n.Load() != 1 || nm.DedupHits.Value() != 1 {
		t.Fatalf("retry of seq 1 after %d writes = %v (first %v): body ran %d times, %d dedup hits; want a replay: 1 and 1",
			writes, again, first, obj.n.Load(), nm.DedupHits.Value())
	}
}

// TestLeaderKillFailoverExactlyOnce is the issue's acceptance scenario:
// kill the leader of a three-member group mid-traffic. The client keeps
// calling through the failover with the same retry identity; every call
// must land exactly once — the returned counter values stay gapless and
// duplicate-free — and the survivors converge.
func TestLeaderKillFailoverExactlyOnce(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 2})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 7, groupOpts{})
	lead := waitLeader(t, members, 2*time.Second)

	cli := groupClient(t, nw, "cli-fo", []string{"A", "B", "C"})
	for i := uint64(1); i <= 10; i++ {
		res, err := cli.Call("KV", "Inc", "k")
		if err != nil {
			t.Fatalf("Inc %d (pre-kill): %v", i, err)
		}
		if got := res[0].(uint64); got != i {
			t.Fatalf("Inc %d returned %d before the kill", i, got)
		}
	}

	lead.crash(nw)
	var live []*member
	for _, m := range members {
		if m != lead {
			live = append(live, m)
		}
	}

	for i := uint64(11); i <= 30; i++ {
		res, err := cli.Call("KV", "Inc", "k")
		if err != nil {
			t.Fatalf("Inc %d (through failover): %v", i, err)
		}
		if got := res[0].(uint64); got != i {
			t.Fatalf("Inc %d returned %d across the failover — exactly-once violated", i, got)
		}
	}
	waitValue(t, live, "k", 30, 2*time.Second)
	newLead := waitLeader(t, live, time.Second)
	if newLead == lead {
		t.Fatal("dead leader still leads")
	}
}

// TestSessionReplayAcrossLeadershipChange is the satellite's table: a
// (client, seq) already committed under the old leader, retried against
// the NEW leader after a failover, must replay its recorded response —
// never re-execute — while fresh identities execute normally.
func TestSessionReplayAcrossLeadershipChange(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 3})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 11, groupOpts{})
	lead := waitLeader(t, members, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	res, err := lead.rep.CallSession(ctx, "cli", 1, "Inc", []any{"k"})
	if err != nil {
		t.Fatalf("seed call: %v", err)
	}
	if got := res[0].(uint64); got != 1 {
		t.Fatalf("seed call returned %d, want 1", got)
	}
	waitValue(t, members, "k", 1, 2*time.Second)

	lead.crash(nw)
	var live []*member
	for _, m := range members {
		if m != lead {
			live = append(live, m)
		}
	}
	newLead := waitLeader(t, live, 2*time.Second)

	cases := []struct {
		name     string
		client   string
		seq      uint64
		wantVal  uint64
		executes bool
	}{
		{"retried seq replays, not re-executes", "cli", 1, 1, false},
		{"fresh seq from the same client executes", "cli", 2, 2, true},
		{"same seq from a different client executes", "cli2", 1, 3, true},
		{"that call retried also replays", "cli2", 1, 3, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := newLead.obj.executions()
			res, err := newLead.rep.CallSession(ctx, c.client, c.seq, "Inc", []any{"k"})
			if err != nil {
				t.Fatalf("CallSession: %v", err)
			}
			if got := res[0].(uint64); got != c.wantVal {
				t.Fatalf("returned %d, want %d", got, c.wantVal)
			}
			wantDelta := 0
			if c.executes {
				wantDelta = 1
			}
			if delta := newLead.obj.executions() - before; delta != wantDelta {
				t.Fatalf("entry body ran %d times, want %d", delta, wantDelta)
			}
		})
	}
}

// TestExactlyOnceUnderConnChaos: the chaos variant — every write has a
// 2% chance of severing its connection, the client retries through the
// carnage, and the counter must still count every call exactly once.
func TestExactlyOnceUnderConnChaos(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 77, KillProb: 0.02})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 5, groupOpts{})
	waitLeader(t, members, 2*time.Second)

	cli := groupClient(t, nw, "cli-chaos", []string{"A", "B", "C"})
	const calls = 40
	for i := uint64(1); i <= calls; i++ {
		res, err := cli.Call("KV", "Inc", "k")
		if err != nil {
			t.Fatalf("Inc %d under chaos: %v", i, err)
		}
		if got := res[0].(uint64); got != i {
			t.Fatalf("Inc %d returned %d under chaos — exactly-once violated", i, got)
		}
	}
	waitValue(t, members, "k", calls, 5*time.Second)
	kills, _, _ := nw.Stats()
	t.Logf("survived %d connection kills", kills)
}

// TestRejoinCatchesUpViaSnapshot: a follower crashes, the group commits
// past the leader's compaction threshold, and the restarted member must
// catch up via InstallSnapshot — observable because its object executes
// only the post-snapshot suffix, not the full history.
func TestRejoinCatchesUpViaSnapshot(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 4})
	ids := []string{"A", "B", "C"}
	members := startGroup(t, nw, ids, 23, groupOpts{thresh: 8})
	lead := waitLeader(t, members, 2*time.Second)

	var victim *member
	for _, m := range members {
		if m != lead {
			victim = m
			break
		}
	}
	victim.crash(nw)

	cli := groupClient(t, nw, "cli-rejoin", []string{"A", "B", "C"})
	const calls = 50
	for i := uint64(1); i <= calls; i++ {
		res, err := cli.Call("KV", "Inc", "k")
		if err != nil {
			t.Fatalf("Inc %d with a member down: %v", i, err)
		}
		if got := res[0].(uint64); got != i {
			t.Fatalf("Inc %d returned %d", i, got)
		}
	}
	var live []*member
	for _, m := range members {
		if m != victim {
			live = append(live, m)
		}
	}
	waitValue(t, live, "k", calls, 2*time.Second)

	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	rejoined := startMember(t, nw, victim.id, peers, 23, groupOpts{thresh: 8})
	waitValue(t, []*member{rejoined}, "k", calls, 5*time.Second)
	if n := rejoined.obj.executions(); n >= calls {
		t.Errorf("rejoined member executed %d entries — caught up by full replay, want snapshot install", n)
	} else {
		t.Logf("rejoined member executed only %d/%d entries (snapshot carried the rest)", n, calls)
	}
}

// emptyReplies answers every call with an empty result list.
type emptyReplies struct{}

func (emptyReplies) CallCtx(context.Context, string, ...any) ([]any, error) { return []any{}, nil }

// TestUndecodableSnapshotReplyKeepsCursors: a peer that answers
// InstallSnapshot with a reply carrying no term has not shown an install,
// so the leader's cursors for it stay where they were and the window slot
// is freed.
func TestUndecodableSnapshotReplyKeepsCursors(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 5})
	node := rpc.NewNodeWith("F", rpc.NodeOptions{})
	if err := node.PublishCallable(ControlName("KV"), emptyReplies{}); err != nil {
		t.Fatal(err)
	}
	lis, err := nw.Listen("F")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()
	t.Cleanup(node.Close)
	rep, err := New(Config{
		ID:              "L",
		Group:           "KV",
		Peers:           map[string]string{"L": "L", "F": "F"},
		Dial:            func(addr string) (net.Conn, error) { return nw.DialFrom("L", addr) },
		ElectionTimeout: time.Hour,
	}, newKV())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)

	p := rep.peers[0]
	p.mu.Lock()
	p.matchIndex, p.nextIndex, p.inflight = 2, 3, 1
	epoch := p.epoch
	p.mu.Unlock()
	p.sendSnapshot(1, 10, 1, []byte("snapshot"), epoch)
	p.mu.Lock()
	match, next, inflight := p.matchIndex, p.nextIndex, p.inflight
	p.mu.Unlock()
	if match != 2 || next != 3 || inflight != 0 {
		t.Fatalf("after an empty InstallSnapshot reply: matchIndex %d, nextIndex %d, inflight %d; want 2, 3, 0", match, next, inflight)
	}
}

// TestDurableRestartReplaysPromises: a member with a wal.Store is
// crashed and restarted over the same directory. Its consensus log and
// session table must survive: committed calls re-apply to rebuild state,
// and a client's retried (client, seq) from before the crash replays its
// recorded response instead of re-executing.
func TestDurableRestartReplaysPromises(t *testing.T) {
	dir := t.TempDir()
	nw := simnet.New(simnet.Config{Seed: 6})
	peers := map[string]string{"solo": "solo"}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	store, err := wal.OpenStore(dir, wal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := startMember(t, nw, "solo", peers, 9, groupOpts{store: store})
	waitLeader(t, []*member{m}, 2*time.Second)
	for i := uint64(1); i <= 5; i++ {
		res, err := m.rep.CallSession(ctx, "cli", i, "Inc", []any{"k"})
		if err != nil {
			t.Fatalf("Inc %d: %v", i, err)
		}
		if got := res[0].(uint64); got != i {
			t.Fatalf("Inc %d returned %d", i, got)
		}
	}
	m.crash(nw)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := wal.OpenStore(dir, wal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store2.Close() })
	m2 := startMember(t, nw, "solo", peers, 9, groupOpts{store: store2})
	waitLeader(t, []*member{m2}, 2*time.Second)
	waitValue(t, []*member{m2}, "k", 5, 2*time.Second)

	before := m2.obj.executions()
	res, err := m2.rep.CallSession(ctx, "cli", 3, "Inc", []any{"k"})
	if err != nil {
		t.Fatalf("retried pre-crash call: %v", err)
	}
	if got := res[0].(uint64); got != 3 {
		t.Fatalf("retried pre-crash call returned %d, want the recorded 3", got)
	}
	if m2.obj.executions() != before {
		t.Fatal("retried pre-crash call re-executed after restart")
	}
	if v := m2.obj.value("k"); v != 5 {
		t.Fatalf("state corrupted by replay: k=%d, want 5", v)
	}
}

// TestFollowerRejectsAndHintsLeader: a direct call on a follower fails
// with the retryable not-leader error so clients bounce instead of
// blocking — and the error names the leader when the follower knows it.
func TestFollowerRejectsAndHintsLeader(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 8})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 3, groupOpts{})
	lead := waitLeader(t, members, 2*time.Second)

	// Let heartbeats spread the leader's identity.
	cli := groupClient(t, nw, "cli-warm", []string{"A", "B", "C"})
	if _, err := cli.Call("KV", "Inc", "k"); err != nil {
		t.Fatal(err)
	}
	waitValue(t, members, "k", 1, 2*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, m := range members {
		if m == lead {
			continue
		}
		_, err := m.rep.CallSession(ctx, "x", 1, "Inc", []any{"k"})
		if err == nil {
			t.Fatalf("%s (follower) accepted a call", m.id)
		}
	}
}
