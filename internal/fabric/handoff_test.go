package fabric

// Handoff edge cases pinned at the unit level: the lineage-precedence
// install guard, the install-arbitration memory, the misplaced-resident
// rescan, and the dup acknowledgement describing the original execution.
// Each of these was (or would be) a convergence failure the e2e chaos
// oracle can catch only probabilistically; here the exact interleaving
// is constructed.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// soloNode boots a single-member ring at the given epoch.
func soloNode(t *testing.T, epoch uint64) *testFabricNode {
	t.Helper()
	addr := reserveAddrs(t, 1)[0]
	r, err := NewRing(epoch, 42, 32, map[string]string{"solo": addr})
	if err != nil {
		t.Fatal(err)
	}
	n := startFabricNode(t, "solo", addr, r.Spec(), "", 0)
	t.Cleanup(n.stop)
	return n
}

// image builds an encoded key state with one client's dedup tail.
func image(t *testing.T, count uint64, client string, seq, epoch uint64, node string) []byte {
	t.Helper()
	st := newKeyState(0)
	st.Count = count
	if client != "" {
		st.Clients[client] = clientRec{Seq: seq, Count: count, Epoch: epoch, Node: node}
	}
	return encodeState(st)
}

// TestInstallLineagePrecedence: installs are ordered by lineage Count
// first, placement epoch second. A crashed handoff's re-pushed stale
// image (lower Count, even at a higher epoch) must never displace a
// live copy; a higher-Count image of the same lineage always wins.
func TestInstallLineagePrecedence(t *testing.T) {
	n := soloNode(t, 1)
	ctx := testCtx(t)
	spec := n.host.Spec()

	res, err := n.host.CallCtx(ctx, "Install", "k", uint64(1), image(t, 5, "c", 4, 0, "old"), spec)
	if err != nil || res[0] != statusOK {
		t.Fatalf("first install: %v %v", res, err)
	}
	// Stale image at a HIGHER epoch: count rules, the live copy stays.
	res, err = n.host.CallCtx(ctx, "Install", "k", uint64(2), image(t, 3, "c", 2, 0, "old"), spec)
	if err != nil || res[0] != statusDup {
		t.Fatalf("stale higher-epoch install should be dup: %v %v", res, err)
	}
	// Duplicate of the resident image: idempotent.
	res, err = n.host.CallCtx(ctx, "Install", "k", uint64(1), image(t, 5, "c", 4, 0, "old"), spec)
	if err != nil || res[0] != statusDup {
		t.Fatalf("duplicate install should be dup: %v %v", res, err)
	}
	// Newer image of the same lineage returning under a newer ring (a
	// key can only come back at a higher epoch): replaces.
	res, err = n.host.CallCtx(ctx, "Install", "k", uint64(2), image(t, 7, "c", 6, 0, "old"), spec)
	if err != nil || res[0] != statusOK {
		t.Fatalf("newer lineage image should install: %v %v", res, err)
	}
	audit, err := n.host.CallCtx(ctx, "Audit", "k")
	if err != nil || audit[0] != statusOK {
		t.Fatalf("audit: %v %v", audit, err)
	}
	st, err := decodeState(audit[1].([]byte))
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 7 {
		t.Fatalf("resident count = %d, want 7 (newer image must have won)", st.Count)
	}
}

// TestInstallArbitrationFenceAndRefusal: the pinned destination of a
// move transaction is its arbiter — the only node that can tell a first
// delivery from a crashed source's re-push of a transaction that already
// completed. A re-push of an accepted install is answered "dup" from the
// arbiter's journal-backed install memory, even after the key has moved
// on (the memory survives Forget) and even across a crash (it is rebuilt
// from the journal). A first delivery whose placement the arbiter's ring
// has moved past is REFUSED with the current spec, never accepted: the
// never-accepted source still holds the key's unique lineage head and
// re-pins the push, while parking the image on the settled arbiter would
// let the new owner's fresh-create gate open ahead of the state. The e2e
// chaos oracle caught both failure modes, as acknowledged sequences
// vanishing from the serving owner and as parallel fresh histories.
func TestInstallArbitrationFenceAndRefusal(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	r1, err := NewRing(1, 42, 32, members)
	if err != nil {
		t.Fatal(err)
	}
	// An epoch-2 ring under which some key migrates b->a, plus a second
	// key also placed on a that b will never see installed.
	var r2 *Ring
	var key, key2 string
	for seed := uint64(1); seed < 500 && key2 == ""; seed++ {
		cand, err := NewRing(2, seed, 32, members)
		if err != nil {
			t.Fatal(err)
		}
		key, key2 = "", ""
		for i := 0; i < 500; i++ {
			k := keyName("arb", i)
			if key == "" && r1.Owner(k) == "b" && cand.Owner(k) == "a" {
				key = k
			} else if key != "" && key2 == "" && cand.Owner(k) == "a" {
				key2, r2 = k, cand
				break
			}
		}
	}
	if key2 == "" {
		t.Fatal("no migrating key pair found")
	}
	dir := t.TempDir()
	a := startFabricNode(t, "a", addrs[0], r1.Spec(), "", 0)
	t.Cleanup(a.stop)
	b := startFabricNode(t, "b", addrs[1], r1.Spec(), dir, 0)
	t.Cleanup(func() { b.stop() })
	ctx := testCtx(t)

	// The move's first delivery lands at its pinned epoch-1 destination.
	res, err := b.host.CallCtx(ctx, "Install", key, uint64(1), image(t, 4, "c", 3, 1, "x"), r1.Spec())
	if err != nil || res[0] != statusOK {
		t.Fatalf("first delivery: %v %v", res, err)
	}
	// Reshard: b's handoff moves the key to a, then forgets it.
	if res, err = b.host.CallCtx(ctx, "Reshard", r2.Spec()); err != nil || res[0] != statusOK {
		t.Fatalf("reshard: %v %v", res, err)
	}
	testutil.WaitUntil(t, "key handed off to a", func() bool {
		audit, err := a.host.CallCtx(ctx, "Audit", key)
		if err != nil || audit[0] != statusOK {
			return false
		}
		st, err := decodeState(audit[1].([]byte))
		return err == nil && st.Count == 4 && !st.Moved
	})
	testutil.WaitUntil(t, "b forgot the tombstone", func() bool {
		audit, err := b.host.CallCtx(ctx, "Audit", key)
		return err == nil && audit[0] == statusNone
	})
	// The crashed source re-pushes the completed move at its pinned
	// destination: dup from the install memory, despite the Forget.
	res, err = b.host.CallCtx(ctx, "Install", key, uint64(1), image(t, 4, "c", 3, 1, "x"), r1.Spec())
	if err != nil || res[0] != statusDup {
		t.Fatalf("re-push of a completed move should be dup: %v %v", res, err)
	}
	// A first delivery of a placement b's ring has moved past: refused
	// with the current spec, and nothing rests on b.
	res, err = b.host.CallCtx(ctx, "Install", key2, uint64(1), image(t, 2, "d", 1, 1, "x"), r1.Spec())
	if err != nil || res[0] != statusWrongOwner {
		t.Fatalf("stale first delivery should be refused: %v %v", res, err)
	}
	if ring, err := ParseSpec(res[1].(string)); err != nil || ring.Epoch() != 2 {
		t.Fatalf("refusal should carry the current ring: %v %v", res[1], err)
	}
	if audit, err := b.host.CallCtx(ctx, "Audit", key2); err != nil || audit[0] != statusNone {
		t.Fatalf("refusal parked state on the arbiter: %v %v", audit, err)
	}
	// The install memory survives a crash: restart b from its journal and
	// re-push the completed move again — still dup, lineage untouched.
	b.stop()
	b = startFabricNode(t, "b", addrs[1], r1.Spec(), dir, 0)
	res, err = b.host.CallCtx(ctx, "Install", key, uint64(1), image(t, 4, "c", 3, 1, "x"), r1.Spec())
	if err != nil || res[0] != statusDup {
		t.Fatalf("re-push after restart should be dup: %v %v", res, err)
	}
	audit, err := a.host.CallCtx(ctx, "Audit", key)
	if err != nil || audit[0] != statusOK {
		t.Fatalf("audit at owner: %v %v", audit, err)
	}
	if st, err := decodeState(audit[1].([]byte)); err != nil || st.Count != 4 {
		t.Fatalf("lineage corrupted: %+v %v", st, err)
	}
}

// TestExtractRefusesStalePass: a handoff pass that snapshotted the ring
// before an install landed must not extract the freshly installed key —
// the key is home under the newer ring that carried it, and pushing it
// pinned at the pass's older ring would send it back into its own wake,
// where the previous owner's install memory answers "dup" and both
// sides then forget the only live copy. The e2e chaos oracle caught
// exactly that as a key evaporating from every node's journal (a stream
// stalled "arriving" forever). The ledger refuses the extract when the
// resident placement epoch exceeds the pinned spec's.
func TestExtractRefusesStalePass(t *testing.T) {
	n := soloNode(t, 1)
	ctx := testCtx(t)
	soloAddr := n.host.ringSnapshot().Addr("solo")
	oldRing, err := NewRing(1, 42, 32, map[string]string{"solo": soloAddr})
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := NewRing(2, 42, 32, map[string]string{"solo": soloAddr})
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.host.CallCtx(ctx, "Install", "k", uint64(2), image(t, 3, "c", 2, 2, "x"), newRing.Spec())
	if err != nil || res[0] != statusOK {
		t.Fatalf("install: %v %v", res, err)
	}
	// A pass pinned at epoch 1 (stale snapshot) must be refused.
	res, err = n.host.group.Call("Extract", "k", oldRing.Spec())
	if err != nil || res[0] != statusRetry {
		t.Fatalf("stale-pass extract should be refused with retry: %v %v", res, err)
	}
	audit, err := n.host.CallCtx(ctx, "Audit", "k")
	if err != nil || audit[0] != statusOK {
		t.Fatalf("refused extract must leave the key resident: %v %v", audit, err)
	}
	if st, err := decodeState(audit[1].([]byte)); err != nil || st.Moved {
		t.Fatalf("refused extract planted a tombstone: %+v %v", st, err)
	}
	// A pass at least as new as the resident epoch extracts normally.
	res, err = n.host.group.Call("Extract", "k", newRing.Spec())
	if err != nil || res[0] != statusOK {
		t.Fatalf("current-ring extract: %v %v", res, err)
	}
}

// TestHandoffMovesMisplacedResident: a key that lands on a non-owner at
// the current epoch (the install raced a ring advance) must be moved by
// the handoff worker even though the node is already settled — the
// rescan, not an epoch boundary, drives it.
func TestHandoffMovesMisplacedResident(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	r, err := NewRing(1, 42, 32, members)
	if err != nil {
		t.Fatal(err)
	}
	a := startFabricNode(t, "a", addrs[0], r.Spec(), "", 0)
	t.Cleanup(a.stop)
	b := startFabricNode(t, "b", addrs[1], r.Spec(), "", 0)
	t.Cleanup(b.stop)
	ctx := testCtx(t)

	key := ""
	for i := 0; i < 1000; i++ {
		k := keyName("stray", i)
		if r.Owner(k) == "b" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by b")
	}
	// Same-epoch install to the wrong member: accepted, then detected as
	// misplaced and handed off by the rescan.
	res, err := a.host.CallCtx(ctx, "Install", key, uint64(1), image(t, 2, "c", 1, 1, "a"), r.Spec())
	if err != nil || res[0] != statusOK {
		t.Fatalf("install: %v %v", res, err)
	}
	testutil.WaitUntil(t, "misplaced key pushed to its owner", func() bool {
		audit, err := b.host.CallCtx(ctx, "Audit", key)
		if err != nil || audit[0] != statusOK {
			return false
		}
		st, err := decodeState(audit[1].([]byte))
		return err == nil && st.Count == 2 && !st.Moved
	})
	testutil.WaitUntil(t, "source forgot the tombstone", func() bool {
		audit, err := a.host.CallCtx(ctx, "Audit", key)
		return err == nil && audit[0] == statusNone
	})
}

// TestDupAckDescribesOriginalExecution: a retried append answered from
// the dedup tail must report the epoch and node of the ORIGINAL
// execution, not the key's current placement — otherwise client-side
// ledgers show later counts at older epochs and the conformance oracle
// flags epoch regressions.
func TestDupAckDescribesOriginalExecution(t *testing.T) {
	n := soloNode(t, 3)
	ctx := testCtx(t)
	spec := n.host.Spec()

	// A migrated-in state: client c executed seq 4 (count 5) at epoch 1
	// on node "origin" before the key moved here at epoch 3.
	res, err := n.host.CallCtx(ctx, "Install", "k", uint64(3), image(t, 5, "c", 4, 1, "origin"), spec)
	if err != nil || res[0] != statusOK {
		t.Fatalf("install: %v %v", res, err)
	}
	res, err = n.host.CallCtx(ctx, "Append", "k", "c", uint64(4), []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != statusOK || res[4] != "dup" {
		t.Fatalf("retry = %v, want deduplicated ok", res)
	}
	if node, _ := res[1].(string); node != "origin" {
		t.Fatalf("dup ack node = %q, want the original executor %q", node, "origin")
	}
	if epoch, _ := res[2].(uint64); epoch != 1 {
		t.Fatalf("dup ack epoch = %d, want the original execution's epoch 1", epoch)
	}
	if count, _ := res[3].(uint64); count != 5 {
		t.Fatalf("dup ack count = %d, want 5", count)
	}
}

func keyName(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

// TestHandoffDoesNotSettleOnPartialEnumeration: with one ledger shard gone
// underneath, a handoff pass cannot see the keys that shard holds. It must
// not declare the node settled — that would open peers' fresh-create gate
// while history is still resident here — and the next kick tries again.
func TestHandoffDoesNotSettleOnPartialEnumeration(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	r1, err := NewRing(1, 42, 32, members)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(2, 43, 32, members)
	if err != nil {
		t.Fatal(err)
	}
	a := startFabricNode(t, "a", addrs[0], r1.Spec(), "", 0)
	t.Cleanup(a.stop)
	passes := make(chan string, 16) // a pass logs a line or two; nothing blocks on a full buffer
	host, err := NewHost(HostOptions{ID: "b", Spec: r1.Spec(), Shards: 2, Logf: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "handoff to epoch 2") {
			select {
			case passes <- line:
			default:
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = host.Close() })
	ctx := testCtx(t)
	testutil.WaitUntil(t, "b settled at its boot epoch", func() bool { return host.completedLevel() == 1 })

	if err := host.group.Shard(0).Close(); err != nil {
		t.Fatal(err)
	}
	if res, err := host.CallCtx(ctx, "Reshard", r2.Spec()); err != nil || res[0] != statusOK {
		t.Fatalf("reshard: %v %v", res, err)
	}
	// Two whole passes: the worker is serial, so when the second reports,
	// the first has returned.
	for i := 0; i < 2; i++ {
		select {
		case line := <-passes:
			if !strings.Contains(line, "enumerate keys") {
				t.Fatalf("pass %d did not fail on the enumeration: %q", i, line)
			}
		case <-ctx.Done():
			t.Fatalf("pass %d never ran", i)
		}
		host.kickHandoff()
	}
	if got := host.completedLevel(); got != 1 {
		t.Fatalf("b settled through epoch %d on a partial enumeration", got)
	}
	if a.host.gateOK(2) {
		t.Fatal("a's fresh-create gate opened at epoch 2 while b could not enumerate its residents")
	}
}

// TestHandoffFinishesTombstoneRoutedHome: a node extracts a key for a new
// owner and stops before the push lands; it restarts under a ring that
// routes the key back to it. The tombstone holds the key's only state, so
// the handoff must still finish its push — here the arbiter refuses it
// with the newer ring and the key is reinstalled at home — or every call
// for the key would be answered "returning" for good.
func TestHandoffFinishesTombstoneRoutedHome(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	var rings [3]*Ring
	var key string
	for seed := uint64(1); key == "" && seed < 100; seed++ {
		rings[0], rings[1], rings[2] = mustRing(t, 0, 42, members), mustRing(t, 1, seed, members), mustRing(t, 2, seed+100, members)
		for i := 0; i < 100 && key == ""; i++ {
			k := keyName("home", i)
			if rings[0].Owner(k) == "a" && rings[1].Owner(k) == "b" && rings[2].Owner(k) == "a" {
				key = k
			}
		}
	}
	if key == "" {
		t.Fatal("no key goes a -> b -> a")
	}
	dir := t.TempDir()
	a := startFabricNode(t, "a", addrs[0], rings[0].Spec(), dir, 0)
	ctx := testCtx(t)
	r, err := NewRouter(rings[0].Spec(), RouterOptions{ClientID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := uint64(0); s < 2; s++ {
		if _, err := r.Append(ctx, key, s, nil); err != nil {
			t.Fatal(err)
		}
	}
	// b is down: the push of the extracted key cannot land.
	if _, err := a.host.CallCtx(ctx, "Reshard", rings[1].Spec()); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, "a's tombstone for "+key, func() bool {
		res, err := a.host.group.Call("Audit", key)
		if err != nil || res[0] != statusOK {
			return false
		}
		st, err := decodeState(res[1].([]byte))
		return err == nil && st.Moved
	})
	a.stop()

	a = startFabricNode(t, "a", addrs[0], rings[2].Spec(), dir, 0)
	defer a.stop()
	b := startFabricNode(t, "b", addrs[1], rings[2].Spec(), "", 0)
	defer b.stop()
	home, err := NewRouter(rings[2].Spec(), RouterOptions{ClientID: "c"})
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	actx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	exec, err := home.Append(actx, key, 2, nil)
	if err != nil {
		t.Fatalf("append after a restarted holding the tombstone: %v", err)
	}
	if exec.Node != "a" || exec.Count != 3 || exec.Epoch != 2 {
		t.Fatalf("exec = %+v, want executed by a at epoch 2, count 3", exec)
	}
}
