package rpc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// counter is a journaled object the way alpsd hosts Database: Add(key)
// increments and returns key's count, Get(key) reads it and is skipped by
// the journal. Its checkpoint is the whole table.
type counter struct {
	obj *core.Object
	j   *wal.ObjectJournal

	mu    sync.Mutex
	n     map[string]int
	execs atomic.Int64 // Add bodies run by this incarnation (not replays)
}

func newCounter(t *testing.T, st *wal.Store) *counter {
	t.Helper()
	c := &counter{n: make(map[string]int)}
	c.j = st.Journal("Counter", wal.JournalOptions{Skip: func(e string) bool { return e == "Get" }})
	add := func(k string) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n[k]++
		return c.n[k]
	}
	var err error
	c.obj, err = core.New("Counter",
		core.WithEntry(core.EntrySpec{Name: "Add", Params: 1, Results: 1, Body: func(inv *core.Invocation) error {
			c.execs.Add(1)
			inv.Return(add(inv.Param(0).(string)))
			return nil
		}}),
		core.WithEntry(core.EntrySpec{Name: "Get", Params: 1, Results: 1, Body: func(inv *core.Invocation) error {
			c.mu.Lock()
			defer c.mu.Unlock()
			inv.Return(c.n[inv.Param(0).(string)])
			return nil
		}}),
		core.WithObjectOptions(core.ObjectOptions{Journal: c.j}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.j.Recover(wal.RecoverHooks{
		Restore: func(blob []byte) error { return gob.NewDecoder(bytes.NewReader(blob)).Decode(&c.n) },
		Replay: func(entry string, p []any) error {
			add(p[0].(string))
			return nil
		},
		Snapshot: func() ([]byte, error) {
			c.mu.Lock()
			defer c.mu.Unlock()
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(c.n)
			return buf.Bytes(), err
		},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAckCheckpointWaitsForDurableAcks pins the one rule that replaced the
// store's "dump the dedup table before object state" step: a checkpoint
// reveals nothing that is not durable. Participants register in alpsd's
// order — the object, then (here) a participant whose checkpoint hook runs
// one journaled call, then the node — so the object's state is captured
// BEFORE that call and the ack ledger's dump AFTER it, while the call's
// outcome and ack records sit unsynced behind a held fsync. The ledger's hook
// must wait for them: the snapshot blocks and publishes nothing. Had it
// published, the crash below would leave a checkpoint remembering the
// acknowledgement of a call whose effect is gone, and the retry would be
// answered without the count ever moving.
func TestAckCheckpointWaitsForDurableAcks(t *testing.T) {
	fs := wal.NewFailFS()
	var hold atomic.Bool
	entered := make(chan struct{}, 1)
	verdict := make(chan error)
	fs.SyncHook = func(name string) error {
		if !hold.Load() || !strings.Contains(name, "/wal-") {
			return nil
		}
		entered <- struct{}{}
		return <-verdict
	}
	snapFiles := func() (n int) {
		names, _ := fs.List("data")
		for _, name := range names {
			if strings.HasPrefix(name, "snap-") {
				n++
			}
		}
		return n
	}
	boot := func(window func(*Remote)) (*wal.Store, *counter, *Remote, func()) {
		st, err := wal.OpenStore("data", wal.StoreOptions{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		c := newCounter(t, st)
		var rem *Remote
		if _, err := st.Journal("window", wal.JournalOptions{Skip: func(string) bool { return true }}).Recover(wal.RecoverHooks{
			Snapshot: func() ([]byte, error) { window(rem); return nil, nil },
		}); err != nil {
			t.Fatal(err)
		}
		node := NewNodeWith("n", NodeOptions{Durable: st})
		if err := node.Publish(c.obj); err != nil {
			t.Fatal(err)
		}
		lis, stop := servePipes(node)
		rem = DialConnWith(lis.dial(t), DialOptions{ClientID: "c"})
		return st, c, rem, func() {
			rem.Close()
			node.Close()
			stop()
			_ = c.obj.Close()
			_ = st.Close()
		}
	}

	// The window: client c's seq 1 executes and completes in the node's
	// table; its WaitSynced is the fsync the SyncHook holds.
	callDone := make(chan error, 1)
	st, _, _, stop := boot(func(rem *Remote) {
		go func() {
			_, err := rem.Call("Counter", "Add", "k")
			callDone <- err
		}()
		<-entered
	})
	hold.Store(true)
	snapDone := make(chan error, 1)
	go func() { snapDone <- st.ForceSnapshot() }()
	select {
	case err := <-snapDone:
		t.Fatalf("ForceSnapshot returned (%v) while the ack its ledger checkpoint holds was unsynced", err)
	case <-time.After(200 * time.Millisecond):
	}
	if n := snapFiles(); n != 0 {
		t.Fatalf("%d snapshot files published behind the held fsync", n)
	}
	verdict <- errors.New("held fsync fails")
	if err := <-snapDone; err == nil {
		t.Fatal("ForceSnapshot succeeded over a failed fsync")
	}
	if err := <-callDone; err == nil {
		t.Fatal("the call was acknowledged over a failed fsync")
	}
	if n := snapFiles(); n != 0 {
		t.Fatalf("%d snapshot files published", n)
	}
	stop()
	hold.Store(false)
	fs.Crash()

	// Restart: nothing of seq 1 is durable, so its retry executes fresh.
	_, c, rem, stop := boot(func(*Remote) {})
	defer stop()
	if res, err := rem.Call("Counter", "Add", "k"); err != nil || res[0] != 1 {
		t.Fatalf("retried seq 1 = %v, %v; want a fresh execution returning 1", res, err)
	}
	if res, err := rem.Call("Counter", "Get", "k"); err != nil || res[0] != 1 || c.execs.Load() != 1 {
		t.Fatalf("read-back = %v, %v after %d executions since the restart; want count 1 from exactly 1", res, err, c.execs.Load())
	}
}

// sessionObject counts every CallSession per seq and rejects the first
// attempt of each the way a follower does.
type sessionObject struct {
	mu    sync.Mutex
	calls map[uint64]int
}

func (s *sessionObject) CallCtx(context.Context, string, ...any) ([]any, error) {
	return nil, errors.New("called without an identity")
}

func (s *sessionObject) CallSession(_ context.Context, _ string, seq uint64, _ string, _ []any) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[seq]++
	if s.calls[seq] == 1 {
		return nil, fmt.Errorf("follower: %w", ErrNotLeader)
	}
	return []any{s.calls[seq]}, nil
}

// TestSessionCallableOwnsAtMostOnce: a published object that takes the
// caller's identity (the replicated group) owns its at-most-once — its
// session table replays retries at propose and at apply time — so the node
// keeps no entry for its calls. A same-seq retry reaches the object again
// (here: after a not-leader rejection, which therefore cannot be pinned),
// the node's table stays empty, and no call counts as a dedup hit.
func TestSessionCallableOwnsAtMostOnce(t *testing.T) {
	obj := &sessionObject{calls: make(map[uint64]int)}
	nm := &Metrics{}
	node := NewNodeWith("n", NodeOptions{Metrics: nm})
	if err := node.PublishCallable("Group", obj); err != nil {
		t.Fatal(err)
	}
	lis, stop := servePipes(node)
	defer func() { node.Close(); stop() }()
	// Two Remotes with one identity: both send seq 1.
	for attempt, want := range []string{"not-leader", "[2]"} {
		rem := DialConnWith(lis.dial(t), DialOptions{ClientID: "s"})
		res, err := rem.Call("Group", "Put")
		rem.Close()
		got := fmt.Sprint(res)
		if errors.Is(err, ErrNotLeader) {
			got = "not-leader"
		} else if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("attempt %d of seq 1 = %s, want %s", attempt+1, got, want)
		}
	}
	if n := obj.calls[1]; n != 2 {
		t.Fatalf("seq 1 reached the object %d times, want 2", n)
	}
	if n, hits := node.dedup.len(), nm.DedupHits.Value(); n != 0 || hits != 0 {
		t.Fatalf("node table holds %d entries and counted %d dedup hits for a session-aware object, want 0 and 0", n, hits)
	}
}
