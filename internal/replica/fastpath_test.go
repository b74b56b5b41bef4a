package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/wal"
	"repro/internal/wire"
)

// isGet classifies the kvObj's read-only entry for the ReadIndex tests.
func isGet(entry string) bool { return entry == "Get" }

// TestCombinedProposalsFIFO drives a durable leader with many concurrent
// proposers and checks the two combining invariants at once: per-client
// FIFO survives (every proposer sees its own gapless counter sequence)
// and combining actually happened (strictly fewer append rounds — and
// thus journal syncs — than proposals). Combining is an
// arrival-during-round phenomenon, so the test manufactures the overlap
// deterministically: it holds r.mu — which commitRound needs — while the
// first burst of proposers enqueues, exactly as a slow fsync or a
// contended lock would in production, then releases and lets the
// combiner drain the pile-up as one window. The members journal to real
// wal stores so the combined round exercises the multi-entry persist +
// single WaitSynced path it exists to amortize.
func TestCombinedProposalsFIFO(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 31})
	met := &rpc.Metrics{}
	ids := []string{"A", "B", "C"}
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	members := make([]*member, 0, len(ids))
	for _, id := range ids {
		store, err := wal.OpenStore(t.TempDir(), wal.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = store.Close() })
		members = append(members, startMember(t, nw, id, peers, 17, groupOpts{store: store, metrics: met}))
	}
	lead := waitLeader(t, members, 2*time.Second)

	const clients = 32
	const calls = 20
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	// Stall the first round mid-flight: whichever proposer becomes the
	// combiner blocks inside commitRound on r.mu while every other
	// client's first proposal parks in the queue behind it.
	counted := met.ReplProposals.Value()
	lead.rep.mu.Lock()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", c)
			client := fmt.Sprintf("cli-%d", c)
			for i := uint64(1); i <= calls; i++ {
				res, err := lead.rep.CallSession(ctx, client, i, "Inc", []any{key})
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", c, i, err)
					return
				}
				if got := res[0].(uint64); got != i {
					errs <- fmt.Errorf("client %d call %d returned %d — FIFO broken under combining", c, i, got)
					return
				}
			}
		}(c)
	}
	// Release once most of the burst is parked (the combiner's own
	// proposal has already left the queue, so the threshold is below
	// clients); the combiner then drains the pile-up in one window. A
	// combiner descheduled before it took its window takes the burst into
	// the stalled round itself, which counts its proposals before r.mu.
	for deadline := time.Now().Add(2 * time.Second); ; {
		lead.rep.propMu.Lock()
		parked := len(lead.rep.propQ) + int(met.ReplProposals.Value()-counted) - 1
		lead.rep.propMu.Unlock()
		if parked >= clients*3/4 {
			break
		}
		if time.Now().After(deadline) {
			lead.rep.mu.Unlock()
			t.Fatalf("only %d proposals parked behind the stalled round", parked)
		}
		time.Sleep(time.Millisecond)
	}
	lead.rep.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := 0; c < clients; c++ {
		waitValue(t, members, fmt.Sprintf("k%d", c), calls, 2*time.Second)
	}
	proposals, rounds, combined := met.ReplProposals.Value(), met.ReplRounds.Value(), met.ReplCombined.Value()
	t.Logf("proposals=%d rounds=%d combined=%d batch=%s", proposals, rounds, combined, met.ReplBatch.String())
	if proposals < clients*calls {
		t.Fatalf("counted %d proposals, want >= %d", proposals, clients*calls)
	}
	if combined == 0 || rounds >= proposals {
		t.Fatalf("no combining observed: %d proposals in %d rounds", proposals, rounds)
	}
}

// TestReadIndexServesWithoutLog: reads classified by Config.ReadOnly are
// served from leader state without growing the replicated log — the
// applied frontier stays put across a burst of reads, the values are the
// committed ones, and the metrics account for every fast-path serve.
func TestReadIndexServesWithoutLog(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 32})
	met := &rpc.Metrics{}
	members := startGroup(t, nw, []string{"A", "B", "C"}, 19, groupOpts{metrics: met, readOnly: isGet})
	lead := waitLeader(t, members, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const writes = 7
	for i := uint64(1); i <= writes; i++ {
		if _, err := lead.rep.CallSession(ctx, "w", i, "Inc", []any{"k"}); err != nil {
			t.Fatalf("Inc %d: %v", i, err)
		}
	}
	applied := lead.rep.Applied()

	const reads = 25
	for i := 0; i < reads; i++ {
		res, err := lead.rep.CallCtx(ctx, "Get", "k")
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if got := res[0].(uint64); got != writes {
			t.Fatalf("Get returned %d, want %d", got, writes)
		}
	}
	if after := lead.rep.Applied(); after != applied {
		t.Fatalf("reads moved the applied frontier %d → %d — they went through the log", applied, after)
	}
	if served := met.ReplReads.Value(); served != reads {
		t.Fatalf("metrics counted %d fast-path reads, want %d", served, reads)
	}
	if rounds := met.ReplReadRounds.Value(); rounds == 0 {
		t.Fatal("no quorum confirmation rounds issued for reads")
	}

	// A follower must bounce reads with the typed retryable error, like
	// any other call — DialMulti clients rotate to the leader on it.
	for _, m := range members {
		if m == lead {
			continue
		}
		_, err := m.rep.CallCtx(ctx, "Get", "k")
		if err == nil {
			t.Fatalf("%s (follower) served a read", m.id)
		}
		if !errors.Is(err, wire.ErrNotLeader) {
			t.Fatalf("%s bounced read with %v, want wire.ErrNotLeader", m.id, err)
		}
	}
}

// TestReadIndexAfterFailoverObservesCommittedPrefix: writes committed
// under the old leader must be visible to the first successful read on
// the new leader — the accession-barrier gate is what forbids the fresh
// leader from serving its stale commit frontier.
func TestReadIndexAfterFailoverObservesCommittedPrefix(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 33})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 29, groupOpts{readOnly: isGet})
	lead := waitLeader(t, members, 2*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const writes = 10
	for i := uint64(1); i <= writes; i++ {
		if _, err := lead.rep.CallSession(ctx, "w", i, "Inc", []any{"k"}); err != nil {
			t.Fatalf("Inc %d: %v", i, err)
		}
	}
	lead.crash(nw)
	var live []*member
	for _, m := range members {
		if m != lead {
			live = append(live, m)
		}
	}
	newLead := waitLeader(t, live, 2*time.Second)

	// The first reads may bounce retryable while the barrier commits;
	// the first one that SUCCEEDS must already see the full prefix.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := newLead.rep.CallCtx(ctx, "Get", "k")
		if err == nil {
			if got := res[0].(uint64); got != writes {
				t.Fatalf("first successful post-failover read returned %d, want %d — committed prefix missed", got, writes)
			}
			return
		}
		if !errors.Is(err, wire.ErrNotLeader) && !errors.Is(err, ErrClosed) {
			t.Fatalf("post-failover read failed non-retryable: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("read never succeeded on the new leader: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelinedFailoverChaosSoak is the CI race soak for the pipelined
// path: concurrent retrying clients, a 2% connection-kill probability,
// and a leader kill in the middle of the run. Every client's counter
// sequence must stay gapless and duplicate-free — reordered or replayed
// AppendEntries frames from the in-flight window must never double-apply.
func TestPipelinedFailoverChaosSoak(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 34, KillProb: 0.02})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 37, groupOpts{})
	lead := waitLeader(t, members, 2*time.Second)

	const clients = 4
	const calls = 30
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	var once sync.Once
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli := groupClient(t, nw, fmt.Sprintf("soak-%d", c), []string{"A", "B", "C"})
			key := fmt.Sprintf("k%d", c)
			for i := uint64(1); i <= calls; i++ {
				res, err := cli.Call("KV", "Inc", key)
				if err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", c, i, err)
					return
				}
				if got := res[0].(uint64); got != i {
					errs <- fmt.Errorf("client %d call %d returned %d — exactly-once violated", c, i, got)
					return
				}
				if i == calls/2 {
					// Halfway through the first client's run, kill the
					// leader once: the rest of every sequence rides the
					// failover.
					once.Do(func() { lead.crash(nw) })
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var live []*member
	for _, m := range members {
		if m != lead {
			live = append(live, m)
		}
	}
	for c := 0; c < clients; c++ {
		waitValue(t, live, fmt.Sprintf("k%d", c), calls, 5*time.Second)
	}
	kills, _, _ := nw.Stats()
	t.Logf("survived %d connection kills plus one leader kill", kills)
}

// syncHold holds a FailFS's fsyncs open until release. A Sync that enters
// the hold announces itself on entered, unless an announcement is already
// waiting there.
type syncHold struct {
	entered chan struct{}
	hold    chan struct{}
	once    sync.Once
}

func holdSyncs(fs *wal.FailFS) *syncHold {
	h := &syncHold{entered: make(chan struct{}, 1), hold: make(chan struct{})}
	fs.SyncHook = func(string) error {
		select {
		case h.entered <- struct{}{}:
		default:
		}
		<-h.hold
		return nil
	}
	return h
}

func (h *syncHold) release() { h.once.Do(func() { close(h.hold) }) }

// TestReadIndexWhileFollowerSyncsHeld is the held-fsync liveness row for
// ReadIndex reads on a settled leader: with both followers' fsyncs held and
// one write in flight behind them, a read on the leader still confirms its
// leadership with a quorum and returns the last committed value. The
// confirmation is an empty AppendEntries at prev 0, which a follower
// answers at its snapshot floor without waiting on its own fsyncs. The
// election timeout is long enough that no heartbeat falls due between the
// write and the read, so the read's round rides that empty frame.
func TestReadIndexWhileFollowerSyncsHeld(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 35})
	members, disks, stores := diskGroup(t, nw, 41, groupOpts{readOnly: isGet, election: 500 * time.Millisecond})
	lead := waitLeader(t, members, 5*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const writes = 3
	for i := uint64(1); i <= writes; i++ {
		if _, err := lead.rep.CallSession(ctx, "w", i, "Inc", []any{"k"}); err != nil {
			t.Fatalf("Inc %d: %v", i, err)
		}
	}
	var followers []*member
	for _, m := range members {
		if m != lead {
			followers = append(followers, m)
		}
	}
	testutil.WaitUntil(t, "the followers to hold the leader's log on disk", func() bool {
		for _, f := range followers {
			if logTail(f) != logTail(lead) || stores[f.id].SyncedLSN() != stores[f.id].AppendedLSN() {
				return false
			}
		}
		return true
	})

	var holds []*syncHold
	for _, f := range followers {
		h := holdSyncs(disks[f.id])
		holds = append(holds, h)
		t.Cleanup(h.release) // before the stores close
	}
	written := make(chan error, 1)
	go func() {
		_, err := lead.rep.CallSession(ctx, "w", writes+1, "Inc", []any{"k"})
		written <- err
	}()
	for _, h := range holds {
		select {
		case <-h.entered:
		case <-time.After(2 * time.Second):
			t.Fatal("the in-flight write never reached a follower's fsync")
		}
	}

	readCtx, readCancel := context.WithTimeout(ctx, 2*time.Second)
	defer readCancel()
	start := time.Now()
	res, err := lead.rep.CallCtx(readCtx, "Get", "k")
	if err != nil {
		t.Fatalf("Get with the followers' fsyncs held: %v after %v", err, time.Since(start))
	}
	if got := res[0].(uint64); got != writes {
		t.Fatalf("Get returned %d, want the committed %d", got, writes)
	}
	select {
	case err := <-written:
		t.Fatalf("the write finished (%v) while both followers' fsyncs were held", err)
	default:
	}
	t.Logf("read confirmed in %v with both followers' fsyncs held", time.Since(start))

	for _, h := range holds {
		h.release()
	}
	if err := <-written; err != nil {
		t.Fatalf("the held write: %v", err)
	}
	waitValue(t, members, "k", writes+1, 5*time.Second)
}

// floorFollower is a lone follower that never campaigns and never dials
// out: the test plays its leader by calling its control endpoint directly.
func floorFollower(t *testing.T) (*control, *wal.FailFS) {
	t.Helper()
	fs := wal.NewFailFS()
	st, err := wal.OpenStore("data", wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	obj := newKV()
	rep, err := New(Config{
		ID:              "F",
		Group:           "KV",
		Peers:           map[string]string{"F": "F", "L": "L"},
		Dial:            func(string) (net.Conn, error) { return nil, errors.New("no network") },
		Store:           st,
		ElectionTimeout: time.Hour,
		Snapshot:        obj.snapshot,
		Restore:         obj.restore,
	}, obj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	return &control{r: rep}, fs
}

// TestEmptyFrameAtFloorSkipsFsync: an AppendEntries with no entries and
// prev 0 — the leader's ReadIndex confirmation — is answered with success
// at once while the follower's fsync of an earlier frame is held, and moves
// the follower's commitIndex nowhere, whether the follower's snapshot floor
// is 0 or above it.
func TestEmptyFrameAtFloorSkipsFsync(t *testing.T) {
	const term = uint64(1)
	inc := []any{encodeEntry(entry{Term: term, Entry: "Inc", Params: []any{"k"}})}
	for _, floor := range []uint64{0, 5} {
		t.Run(fmt.Sprintf("floor=%d", floor), func(t *testing.T) {
			c, fs := floorFollower(t)
			if floor > 0 {
				state, err := newKV().snapshot()
				if err != nil {
					t.Fatal(err)
				}
				blob, err := (&snapshotPayload{LastIndex: floor, LastTerm: term, State: state}).encode()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.installSnapshot([]any{term, "L", floor, term, blob}); err != nil {
					t.Fatal(err)
				}
			}
			prevTerm := uint64(0)
			if floor > 0 {
				prevTerm = term
			}
			reply, err := c.appendEntries([]any{term, "L", floor, prevTerm, floor + 1, inc})
			if err != nil || !reply[1].(bool) {
				t.Fatalf("first entry: %v, %v", reply, err)
			}

			h := holdSyncs(fs)
			t.Cleanup(h.release)
			held := make(chan error, 1)
			go func() {
				_, err := c.appendEntries([]any{term, "L", floor + 1, term, floor + 1, inc})
				held <- err
			}()
			select {
			case <-h.entered:
			case <-time.After(2 * time.Second):
				t.Fatal("the second entry's fsync never started")
			}
			c.r.mu.Lock()
			commit := c.r.commitIndex
			c.r.mu.Unlock()

			answered := make(chan []any, 1)
			go func() {
				reply, err := c.appendEntries([]any{term, "L", uint64(0), uint64(0), floor + 2, []any{}})
				if err != nil {
					t.Error(err)
				}
				answered <- reply
			}()
			select {
			case reply := <-answered:
				if len(reply) != 3 || reply[0] != term || reply[1] != true || reply[2] != uint64(0) {
					t.Fatalf("empty frame at prev 0 answered %v, want [%d true 0]", reply, term)
				}
			case <-time.After(time.Second):
				t.Fatal("empty frame at prev 0 waited on the held fsync")
			}
			c.r.mu.Lock()
			after := c.r.commitIndex
			c.r.mu.Unlock()
			if after != commit {
				t.Fatalf("empty frame moved commitIndex %d → %d", commit, after)
			}
			h.release()
			if err := <-held; err != nil {
				t.Fatalf("the held frame: %v", err)
			}
		})
	}
}

// TestStrayHeartbeatIsUnknownEntry: the consensus endpoint serves Raft's
// three messages and nothing else, so a Heartbeat, which a read round no
// longer sends, is answered as any unknown entry is.
func TestStrayHeartbeatIsUnknownEntry(t *testing.T) {
	c, _ := floorFollower(t)
	if _, err := c.CallCtx(context.Background(), "Heartbeat", uint64(1), "L", uint64(1)); !errors.Is(err, core.ErrUnknownEntry) {
		t.Fatalf("Heartbeat answered %v, want core.ErrUnknownEntry", err)
	}
}
