package replica

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/wal"
	"repro/internal/wire"
)

// diskGroup starts a three-member group, A, B and C, each journaling to a
// store on a FailFS of its own; o's store is ignored.
func diskGroup(t *testing.T, nw *simnet.Network, seed uint64, o groupOpts) ([]*member, map[string]*wal.FailFS, map[string]*wal.Store) {
	t.Helper()
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	disks := map[string]*wal.FailFS{}
	stores := map[string]*wal.Store{}
	var members []*member
	for _, id := range []string{"A", "B", "C"} {
		disks[id] = wal.NewFailFS()
		st, err := wal.OpenStore("data", wal.StoreOptions{FS: disks[id]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() }) // after the member's own cleanup
		stores[id] = st
		o.store = st
		members = append(members, startMember(t, nw, id, peers, seed, o))
	}
	return members, disks, stores
}

// logTail is the index a member's log ends at.
func logTail(m *member) uint64 { hs := m.rep.hardState(); return hs.SnapIndex + uint64(len(hs.Log)) }

// TestFollowerDiskRefusalStopsPromises: one fsync fails on a follower's disk,
// and the wal's sticky error then refuses every record after it. From then
// on the follower promises nothing. Its acknowledgements move a leader's
// matchIndex for it no further than the last index its disk holds, while the
// other two members keep committing; and it grants no vote in a later term.
func TestFollowerDiskRefusalStopsPromises(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 28})
	members, disks, stores := diskGroup(t, nw, 28, groupOpts{})
	lead := waitLeader(t, members, 2*time.Second)
	var f *member
	for _, m := range members {
		if m != lead {
			f = m
			break
		}
	}
	cli := groupClient(t, nw, "cli", []string{"A", "B", "C"})
	inc := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := cli.Call("KV", "Inc", "k"); err != nil {
				t.Fatal(err)
			}
		}
	}
	inc(10)

	// With no writes in flight, every record the follower holds becomes
	// durable: the index its log then ends at is what its disk keeps.
	var durable uint64
	testutil.WaitUntil(t, "the follower to hold the leader's log on disk", func() bool {
		durable = logTail(f)
		return durable == logTail(lead) && stores[f.id].SyncedLSN() == stores[f.id].AppendedLSN()
	})

	var failed atomic.Bool
	errDisk := errors.New("injected: disk gone")
	disks[f.id].SyncHook = func(string) error {
		if failed.CompareAndSwap(false, true) {
			return errDisk
		}
		return nil
	}

	// Sample every other member's matchIndex for the follower while the
	// group writes through the failure. A member's matchIndex moves only on
	// the follower's success replies, and resets when it takes office.
	var (
		mu       sync.Mutex
		maxMatch uint64
	)
	sample := func() {
		for _, m := range members {
			if m == f {
				continue
			}
			for _, p := range m.rep.peers {
				if p.id != f.id {
					continue
				}
				p.mu.Lock()
				match := p.matchIndex
				p.mu.Unlock()
				mu.Lock()
				maxMatch = max(maxMatch, match)
				mu.Unlock()
			}
		}
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
				sample()
			}
		}
	}()
	// The first write's record reaches the follower's log, and its fsync
	// fails. Heartbeats then resend that entry alone, which the follower
	// already holds but never made durable; later frames carry records the
	// disk refuses outright.
	inc(1)
	testutil.WaitUntil(t, "the follower's fsync to fail", failed.Load)
	time.Sleep(10 * f.rep.cfg.heartbeat())
	inc(39)
	time.Sleep(10 * f.rep.cfg.heartbeat())
	close(stop)
	<-sampled
	sample()

	if maxMatch > durable {
		t.Fatalf("a leader's matchIndex for %s reached %d; its disk holds the log through %d only", f.id, maxMatch, durable)
	}
	if got := logTail(lead); got < durable+40 {
		t.Fatalf("leader %s's log ends at %d, want the 40 writes past %d committed without %s", lead.id, got, durable, f.id)
	}

	_, term, _ := f.rep.Status()
	reply, err := (&control{r: f.rep}).requestVote([]any{term + 1, "rival", ^uint64(0), ^uint64(0)})
	if err == nil && reply[1].(bool) {
		t.Fatalf("%s granted a vote in t%d that its disk refused", f.id, term+1)
	}
	if !errors.Is(err, errDisk) {
		t.Fatalf("vote request answered %v, %v; want the disk's refusal", reply, err)
	}
}

// TestDeposedLeaderRefusedTruncationCommitsNothing: a leader cut off from the
// group proposes an entry its disk makes durable, so the proposal parks
// waiting for a quorum. Then one of its fsyncs fails, and the wal refuses
// every record after it. The other two members elect a leader of a later
// term and commit their own entries over that index. Once the partition
// heals, the new leader's frames overwrite the old leader's suffix, and the
// old leader's disk refuses both the new term and the truncation. The old
// leader must neither commit nor apply the overwritten entry, and its parked
// proposal must fail: a success would report a write the group dropped.
func TestDeposedLeaderRefusedTruncationCommitsNothing(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 29})
	members, disks, stores := diskGroup(t, nw, 29, groupOpts{})
	old := waitLeader(t, members, 2*time.Second)
	var rest []*member
	for _, m := range members {
		if m != old {
			rest = append(rest, m)
		}
	}
	cli := groupClient(t, nw, "cli", []string{old.id})
	for i := 0; i < 5; i++ {
		if _, err := cli.Call("KV", "Inc", "k"); err != nil {
			t.Fatal(err)
		}
	}
	var floor uint64
	testutil.WaitUntil(t, "every member to apply the first writes", func() bool {
		floor = logTail(old)
		for _, m := range members {
			if logTail(m) != floor || m.rep.Applied() != floor {
				return false
			}
		}
		return stores[old.id].SyncedLSN() == stores[old.id].AppendedLSN()
	})
	value := old.obj.value("k")

	for _, m := range rest {
		nw.Partition(old.id, m.id)
		nw.Partition(m.id, old.id)
	}
	ctx, cancel := context.WithDeadline(context.Background(), testutil.WaitBudget(t))
	defer cancel()
	parked := make(chan error, 1)
	go func() {
		_, err := old.rep.CallCtx(ctx, "Inc", "k")
		parked <- err
	}()
	testutil.WaitUntil(t, "the cut-off leader to make its own entry durable", func() bool {
		return logTail(old) == floor+1 && stores[old.id].SyncedLSN() == stores[old.id].AppendedLSN()
	})

	errDisk := errors.New("injected: disk gone")
	disks[old.id].SyncHook = func(string) error { return errDisk }
	if _, err := old.rep.CallCtx(context.Background(), "Inc", "k"); !errors.Is(err, errDisk) {
		t.Fatalf("a proposal whose fsync failed answered %v; want the disk's error", err)
	}

	others := groupClient(t, nw, "others", []string{rest[0].id, rest[1].id})
	for i := 0; i < 5; i++ {
		if _, err := others.Call("KV", "Inc", "k"); err != nil {
			t.Fatal(err)
		}
	}
	nw.HealAll()

	if err := <-parked; !errors.Is(err, wire.ErrNotLeader) {
		t.Fatalf("the cut-off leader's parked proposal answered %v; want it failed as overwritten", err)
	}
	// Let the new leader's frames, every one refused, keep coming.
	time.Sleep(10 * old.rep.cfg.heartbeat())
	old.rep.mu.Lock()
	commit, applied := old.rep.commitIndex, old.rep.applied
	old.rep.mu.Unlock()
	if commit > floor || applied > floor {
		t.Fatalf("%s committed through %d and applied through %d; only %d was ever checked against the new leader", old.id, commit, applied, floor)
	}
	if got := old.obj.value("k"); got != value {
		t.Fatalf("%s's counter reads %d, want the %d it had before the partition", old.id, got, value)
	}
}
