package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/simnet"
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
