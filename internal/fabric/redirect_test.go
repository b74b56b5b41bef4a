package fabric

// A key's calls are answered where the key lives. A node that does not hold
// the key — it never did, or a tombstone marks that it left — answers
// wrong-owner with the newest ring it knows, and the Router calls the owner
// itself; a hint that teaches the Router nothing new makes it back off.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wal"
)

func mustRing(t *testing.T, epoch, seed uint64, members map[string]string) *Ring {
	t.Helper()
	r, err := NewRing(epoch, seed, 32, members)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// movingKey finds a key that from places on src and to places on dst.
func movingKey(t *testing.T, from, to *Ring, src, dst string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := keyName("move", i)
		if from.Owner(key) == src && to.Owner(key) == dst {
			return key
		}
	}
	t.Fatalf("no key moves from %s to %s", src, dst)
	return ""
}

// TestStaleWrongOwnerHintBacksOff: the Router holds a ring the owner has not
// learned yet, so the owner's wrong-owner hint carries an older ring. The
// Router must back off on it, not spend its whole retry budget in a burst,
// and the append succeeds once the owner learns the ring.
func TestStaleWrongOwnerHintBacksOff(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	old, next := mustRing(t, 1, 42, members), mustRing(t, 2, 7, members)
	key := movingKey(t, old, next, "a", "b")
	nodes := make(map[string]*testFabricNode)
	for id, addr := range members {
		nodes[id] = startFabricNode(t, id, addr, old.Spec(), "", 0)
		t.Cleanup(nodes[id].stop)
	}
	ctx := testCtx(t)
	r, err := NewRouter(next.Spec(), RouterOptions{ClientID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type delivery struct {
		at  time.Time
		err error
	}
	delivered := make(chan delivery, 1)
	go func() {
		time.Sleep(100 * time.Millisecond)
		_, err := nodes["b"].host.CallCtx(ctx, "Reshard", next.Spec())
		delivered <- delivery{time.Now(), err}
	}()
	exec, err := r.Append(ctx, key, 0, nil)
	acked := time.Now()
	d := <-delivered
	if d.err != nil {
		t.Fatalf("deliver epoch 2 to b: %v", d.err)
	}
	if err != nil {
		t.Fatalf("append while b lags the router's ring: %v", err)
	}
	if acked.Before(d.at) {
		t.Fatal("append acknowledged before b learned epoch 2")
	}
	if exec.Node != "b" || exec.Epoch != 2 || exec.Count != 1 {
		t.Fatalf("exec = %+v, want executed by b at epoch 2, count 1", exec)
	}
}

// TestStaleRouterRedirectedPastTombstone: a Router on the old ring appends to
// a key whose tombstone is still in place at the old owner — the new owner's
// install fsync is held, so the old owner cannot Forget. The old owner
// redirects rather than relays: the Router learns the new ring, and the
// append executes at the new owner, continuing the key's count. A re-send of
// the same seq, through this Router or one still on the old ring, answers dup
// with the original execution.
func TestStaleRouterRedirectedPastTombstone(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	old, next := mustRing(t, 0, 42, members), mustRing(t, 1, 7, members)
	key := movingKey(t, old, next, "a", "b")
	a := startFabricNode(t, "a", addrs[0], old.Spec(), "", 0)
	defer a.stop()
	fs := wal.NewFailFS()
	store, err := wal.OpenStore("b", wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	b := startFabricNodeWith(t, addrs[1], HostOptions{ID: "b", Spec: old.Spec(), Shards: 2, Store: store})
	defer b.stop()
	ctx := testCtx(t)

	r, err := NewRouter(old.Spec(), RouterOptions{ClientID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := uint64(0); s < 3; s++ {
		if exec, err := r.Append(ctx, key, s, nil); err != nil || exec.Node != "a" {
			t.Fatalf("seq %d: %+v, %v", s, exec, err)
		}
	}

	// b learns the new ring with no journal record and no settle broadcast,
	// so the first thing that syncs b's disk is the install a pushes.
	b.host.mu.Lock()
	b.host.installRing(next)
	b.host.mu.Unlock()
	gate := holdSyncs(fs)
	if _, err := a.host.CallCtx(ctx, "Reshard", next.Spec()); err != nil {
		t.Fatal(err)
	}
	<-gate.entered // b is syncing the install; a's tombstone stands
	defer gate.release()

	type result struct {
		exec Exec
		err  error
	}
	done := make(chan result, 1)
	go func() {
		exec, err := r.Append(ctx, key, 3, nil)
		done <- result{exec, err}
	}()
	for deadline := time.Now().Add(2 * time.Second); r.Ring() != next.Spec() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	gate.release()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if e := res.exec; e.Node != "b" || e.Epoch != 1 || e.Count != 4 || e.Info != "" {
		t.Fatalf("append past the tombstone: %+v, want executed by b at epoch 1, count 4", e)
	}
	if got := r.Ring(); got != next.Spec() {
		t.Fatalf("router ring %q after the move, want %q: the redirect must teach it the new ring", got, next.Spec())
	}

	stale, err := NewRouter(old.Spec(), RouterOptions{ClientID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	for name, rr := range map[string]*Router{"router": r, "stale router": stale} {
		dup, err := rr.Append(ctx, key, 3, nil)
		if err != nil {
			t.Fatalf("%s re-send: %v", name, err)
		}
		if dup.Node != "b" || dup.Epoch != 1 || dup.Count != 4 || dup.Info != "dup" {
			t.Fatalf("%s re-send: %+v, want dup of b's execution at epoch 1, count 4", name, dup)
		}
	}
}

// TestAppendRefusesForwardShape: Append takes exactly (key, client, seq,
// payload). The shape an old owner once used to relay a call past a
// tombstone, with a hop count and a ring spec appended, is refused and
// executes nothing.
func TestAppendRefusesForwardShape(t *testing.T) {
	n := soloNode(t, 0)
	ctx := testCtx(t)
	rem, err := rpc.DialWith(n.addr, rpc.DialOptions{ClientID: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	_, err = rem.CallCtx(ctx, "fabric", "Append", "k", "c", uint64(0), []byte(nil), uint64(1), n.host.Spec())
	if !errors.Is(err, core.ErrBadArity) {
		t.Fatalf("six-parameter Append: %v, want core.ErrBadArity", err)
	}
	res, err := rem.CallCtx(ctx, "fabric", "Append", "k", "c", uint64(0), []byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res); got != "[ok solo 0 1 ]" {
		t.Fatalf("first four-parameter Append answered %s, want a fresh execution with count 1", got)
	}
}
