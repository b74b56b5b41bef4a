package fabric

// The fabric as a participant of the node's wal.Store: recovery from a
// checkpoint plus the records above it, the checkpoint's idempotence under
// the store's fuzzy floor, and refusal of state that does not decode.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/testutil"
	"repro/internal/wal"
)

// segments lists the store's log segment files.
func segments(t *testing.T, fs wal.FS, dir string) []string {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") {
			segs = append(segs, n)
		}
	}
	return segs
}

// auditAll reads every key's raw ledger entry ("" when not resident).
func auditAll(t *testing.T, h *Host, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		res, err := h.CallCtx(testCtx(t), "Audit", k)
		if err != nil {
			t.Fatalf("audit %q: %v", k, err)
		}
		b, _ := res[1].([]byte)
		out[k] = string(b)
	}
	return out
}

// TestFabricRecoveryAcrossCheckpoints: a member journaling through a store
// it does not own takes appends, hands a key off in a live reshard (leaving
// an install fence with no entry under it), holds a tombstone, and is
// checkpointed; more appends and the tombstone's Forget land above the
// checkpoint. Reopened, it restores the checkpoint and replays exactly the
// records above it — from a store whose older segments are gone — and every
// entry, dedup tail and fence is what it was.
func TestFabricRecoveryAcrossCheckpoints(t *testing.T) {
	addrs := reserveAddrs(t, 2)
	members := map[string]string{"a": addrs[0], "b": addrs[1]}
	r1, err := NewRing(1, 42, 32, members)
	if err != nil {
		t.Fatal(err)
	}
	// An epoch-2 ring moving two of b's keys to a; b keeps the others.
	var r2 *Ring
	var moving, staying []string
	for seed := uint64(1); seed < 500 && r2 == nil; seed++ {
		cand, err := NewRing(2, seed, 32, members)
		if err != nil {
			t.Fatal(err)
		}
		moving, staying = nil, nil
		for i := 0; i < 500 && r2 == nil; i++ {
			k := keyName("ckpt", i)
			switch {
			case r1.Owner(k) != "b":
			case cand.Owner(k) == "a" && len(moving) < 2:
				moving = append(moving, k)
			case cand.Owner(k) == "b" && len(staying) < 4:
				staying = append(staying, k)
			}
			if len(moving) == 2 && len(staying) == 4 {
				r2 = cand
			}
		}
	}
	if r2 == nil {
		t.Fatal("no ring pair with two moving and four staying keys")
	}
	// `arrived` reaches b by a handoff install and leaves again with the
	// reshard: afterwards only b's fence remembers it.
	arrived, moved := moving[0], moving[1]
	tomb, live := staying[0], staying[1:]
	all := append([]string{moved}, staying...)

	fs := wal.NewFailFS()
	const dir = "b"
	open := func() *wal.Store {
		t.Helper()
		// No cadence: the one checkpoint is the forced one, so counts are exact.
		store, err := wal.OpenStore(dir, wal.StoreOptions{FS: fs, SegmentBytes: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	a := startFabricNode(t, "a", addrs[0], r1.Spec(), "", 0)
	t.Cleanup(a.stop)
	store := open()
	b := startFabricNodeWith(t, addrs[1], HostOptions{ID: "b", Spec: r1.Spec(), Shards: 2, Store: store})
	stopB := func() { b.stop(); _ = store.Close() }
	t.Cleanup(func() { stopB() })
	ctx := testCtx(t)

	r, err := NewRouter(r1.Spec(), RouterOptions{ClientID: "cA"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	next := map[string]uint64{}
	appendN := func(key string, n int) Exec {
		t.Helper()
		var exec Exec
		for i := 0; i < n; i++ {
			if exec, err = r.Append(ctx, key, next[key], nil); err != nil {
				t.Fatalf("append %s#%d: %v", key, next[key], err)
			}
			next[key]++
		}
		return exec
	}
	for _, k := range all {
		appendN(k, 8)
	}

	// The move that ends at b: its first delivery, at its pinned epoch.
	img := image(t, 4, "c", 3, 1, "x")
	if res, err := b.host.CallCtx(ctx, "Install", arrived, uint64(1), img, r1.Spec()); err != nil || res[0] != statusOK {
		t.Fatalf("first delivery: %v %v", res, err)
	}
	// Live reshard: b hands `moved` and `arrived` to a and forgets them; both
	// nodes settle.
	if _, err := r.Reshard(ctx, r2.Spec()); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, "both members settled at epoch 2", func() bool {
		return a.host.completedLevel() >= 2 && b.host.completedLevel() >= 2 && b.host.gateOK(2) && a.host.gateOK(2)
	})
	for _, k := range moving {
		if res, err := b.host.CallCtx(ctx, "Audit", k); err != nil || res[0] != statusNone {
			t.Fatalf("b still holds %q after handing it off: %v %v", k, res, err)
		}
	}
	// The settled records are journaled a moment after the levels above
	// become visible; let the journal go quiet so the counts below are exact.
	var quiet uint64
	testutil.WaitUntil(t, "b's journal to go quiet", func() bool {
		prev := quiet
		quiet = store.SyncedLSN()
		return quiet == prev
	})
	// A tombstone that outlives the checkpoint: extracted for a ring that
	// places it elsewhere, never pushed.
	elsewhere, err := NewRing(3, 7, 32, map[string]string{"a": addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := b.host.group.Call("Extract", tomb, elsewhere.Spec()); err != nil || res[0] != statusOK {
		t.Fatalf("extract: %v %v", res, err)
	}

	before := segments(t, fs, dir)
	floor := store.SyncedLSN()
	if err := store.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if after := segments(t, fs, dir); len(before) < 3 || len(after) >= len(before) || after[0] == before[0] {
		t.Fatalf("checkpoint pruned nothing: segments %v -> %v", before, after)
	}

	// Above the checkpoint: 3×5 appends and the tombstone's Forget.
	var last Exec
	for _, k := range live {
		last = appendN(k, 5)
	}
	if res, err := b.host.group.Call("Forget", tomb); err != nil || res[0] != statusOK {
		t.Fatalf("forget: %v %v", res, err)
	}
	const above = 3*5 + 1
	if got := store.SyncedLSN() - floor; got != above {
		t.Fatalf("%d records above the checkpoint, want %d (background journaling?)", got, above)
	}
	want := auditAll(t, b.host, append(all, arrived))

	stopB()
	store = open()
	// The node is mounted on the store, yet no fabric call left an ack
	// record: the Host owns their at-most-once.
	if st := store.Stats(); st.SnapshotAt != floor || st.Outcomes != above || st.Acks != 0 {
		t.Fatalf("store reopened at snapshot@%d with %d records and %d acks, want @%d with %d and 0",
			st.SnapshotAt, st.Outcomes, st.Acks, floor, above)
	}
	b = startFabricNodeWith(t, addrs[1], HostOptions{ID: "b", Spec: r1.Spec(), Shards: 2, Store: store})
	// r's link to b died with it; the Appends below redial on their own.

	if rec := b.host.Recovery(); rec != (Recovery{Keys: len(live), CheckpointLSN: floor, Replayed: above}) {
		t.Fatalf("recovery = %+v, want %d keys from checkpoint@%d + %d records", rec, len(live), floor, above)
	}
	if b.host.ringSnapshot().Epoch() != 2 || b.host.completedLevel() != 2 {
		t.Fatalf("recovered ring epoch %d, settled %d; want 2, 2", b.host.ringSnapshot().Epoch(), b.host.completedLevel())
	}
	if got := auditAll(t, b.host, append(all, arrived)); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger changed across the restart:\n got %v\nwant %v", got, want)
	}
	// A retry of the last pre-crash append describes the original execution.
	dup, err := r.Append(ctx, last.Key, last.Seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Info != "dup" || dup.Count != last.Count || dup.Epoch != last.Epoch || dup.Node != last.Node {
		t.Fatalf("retry after restart = %+v, want a dup of %+v", dup, last)
	}
	// The fence survived the checkpoint with no entry under it: a re-push
	// of the completed move is a dup, not a second life for a stale image.
	if res, err := b.host.CallCtx(ctx, "Install", arrived, uint64(1), img, r1.Spec()); err != nil || res[0] != statusDup {
		t.Fatalf("re-push of a completed move after restart: %v %v, want dup", res, err)
	}
	stopB()
	if records, entries := testutil.AckLedger(t, fs, dir); records != 0 || entries != 0 {
		t.Fatalf("the node's ack ledger holds %d records and a checkpoint of %d entries after fabric calls only, want 0 and 0", records, entries)
	}
}

// TestFabricBoundedRecovery: the store's snapshot cadence bounds what a
// member replays. After K ≫ SnapshotEvery appends it restarts from the
// checkpoint at the last multiple of SnapshotEvery plus exactly the K mod
// SnapshotEvery records above it, out of a store pruned to those. (The
// store snapshots beside the appends; the test lets each one land before it
// goes on, so the floors are the multiples and the counts are exact.)
func TestFabricBoundedRecovery(t *testing.T) {
	const every, k = 32, 400
	fs := wal.NewFailFS()
	open := func() *wal.Store {
		t.Helper()
		store, err := wal.OpenStore("n", wal.StoreOptions{FS: fs, SegmentBytes: 4 << 10, SnapshotEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	addr := reserveAddrs(t, 1)[0]
	spec := specFor(0, map[string]string{"n": addr})
	store := open()
	n := startFabricNodeWith(t, addr, HostOptions{ID: "n", Spec: spec, Shards: 2, Store: store})
	ctx := testCtx(t)
	r, err := NewRouter(spec, RouterOptions{ClientID: "cA"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for i := 1; i <= k; i++ {
		if _, err := r.Append(ctx, keys[i%len(keys)], uint64((i-1)/len(keys)), nil); err != nil {
			t.Fatal(err)
		}
		if i%every == 0 {
			snap := fmt.Sprintf("snap-%016d.db", i)
			testutil.WaitUntil(t, "the store's "+snap, func() bool {
				names, _ := fs.List("n")
				return slices.Contains(names, snap)
			})
		}
	}
	want := auditAll(t, n.host, keys)
	n.stop()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store = open()
	defer store.Close()
	n = startFabricNodeWith(t, addr, HostOptions{ID: "n", Spec: spec, Shards: 2, Store: store})
	defer n.stop()
	if rec := n.host.Recovery(); rec != (Recovery{Keys: len(keys), CheckpointLSN: k - k%every, Replayed: k % every}) {
		t.Fatalf("recovery = %+v after %d records at cadence %d: want checkpoint@%d and the %d records above it",
			rec, k, every, k-k%every, k%every)
	}
	// ~270 B a record: all k would fill ~26 segments; the k mod every above
	// the floor sit in the one or two the last snapshot could not prune.
	if st := store.Stats(); st.Segments > 2 {
		t.Fatalf("store reopened over %d segments; pruning should leave at most 2", st.Segments)
	}
	if got := auditAll(t, n.host, keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger changed across the restart:\n got %v\nwant %v", got, want)
	}
}

// bareHost is a Host with a ledger and no store, peers or handoff worker:
// what the recovery hooks need. Close it with closeLedger.
func bareHost(t testing.TB, spec string) *Host {
	t.Helper()
	ring, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := &Host{id: "solo", known: map[string]string{}, settled: map[string]uint64{}}
	h.installRing(ring)
	if h.group, err = newLedger(2, 0, h.id, h.stage, h.durable); err != nil {
		t.Fatal(err)
	}
	return h
}

// journaled is one captured journal record.
type journaled struct {
	entry  string
	params []any
}

// merged flattens a checkpoint into one key -> (entry, fence) map with the
// entries re-encoded, so two checkpoints compare by content.
func merged(t *testing.T, blob []byte) map[string]string {
	t.Helper()
	var cp checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, raw := range cp.Shards {
		var sc shardCheckpoint
		if err := json.Unmarshal(raw, &sc); err != nil {
			t.Fatal(err)
		}
		for k, kc := range sc {
			b, err := json.Marshal(kc)
			if err != nil {
				t.Fatal(err)
			}
			out[k] = string(b)
		}
	}
	return out
}

// TestReplayIdempotentOverFuzzyFloor: the store reads its floor before it
// asks for the checkpoint, so a checkpoint may reflect any number of the
// records that will be replayed on top of it. For a random history of
// appends, extracts, forgets and returning installs on a few keys, a
// checkpoint taken after record j with replay from any record i <= j must
// recover exactly the final state.
func TestReplayIdempotentOverFuzzyFloor(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { replayWorld(t, seed) })
	}
}

func replayWorld(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := testCtx(t)
	var mu sync.Mutex
	var recs []journaled
	capture := func(entry string, params ...any) (uint64, error) {
		mu.Lock()
		defer mu.Unlock()
		recs = append(recs, journaled{entry, params})
		return uint64(len(recs)), nil
	}
	live, err := newLedger(2, 0, "solo", capture, func(uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	addr := "127.0.0.1:1"
	specAt := func(epoch uint64) string {
		r, err := NewRing(epoch, 42, 32, map[string]string{"solo": addr})
		if err != nil {
			t.Fatal(err)
		}
		return r.Spec()
	}
	snapshot := func() []byte {
		res, err := live.Broadcast(ctx, "Checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		cp := checkpoint{Spec: specAt(0)}
		for _, r := range res {
			cp.Shards = append(cp.Shards, r[0].([]byte))
		}
		b, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	keys := []string{"k0", "k1", "k2"}
	clients := []string{"c0", "c1", "c2"}
	epoch := uint64(1)
	away := map[string]*keyState{} // extracted images, "living elsewhere"
	type cut struct {
		n    int // records journaled when the checkpoint was taken
		blob []byte
	}
	cuts := []cut{{0, snapshot()}}
	for op := 0; op < 70; op++ {
		key := keys[rng.Intn(len(keys))]
		switch p := rng.Intn(10); {
		case p < 6:
			client := clients[rng.Intn(len(clients))]
			seq := uint64(0)
			if res, _ := live.Call("Audit", key); res[0] == statusOK {
				st, _ := decodeState(res[1].([]byte))
				if cr, ok := st.Clients[client]; ok {
					seq = cr.Seq + 1
				}
			}
			if _, err := live.Call("Append", key, client, seq, []byte(nil), true, true, epoch); err != nil {
				t.Fatal(err)
			}
		case p < 8:
			res, err := live.Call("Extract", key, specAt(epoch))
			if err != nil {
				t.Fatal(err)
			}
			if res[0] == statusOK {
				st, _ := decodeState(res[1].([]byte))
				away[key] = st
			}
		case p < 9:
			if _, err := live.Call("Forget", key); err != nil {
				t.Fatal(err)
			}
		default:
			// The key comes home under a newer ring, a few appends older.
			st := away[key]
			if st == nil {
				continue
			}
			delete(away, key)
			epoch++
			for i := rng.Intn(3); i > 0; i-- {
				client := clients[rng.Intn(len(clients))]
				st.Count++
				st.Clients[client] = clientRec{Seq: st.Clients[client].Seq + 1, Count: st.Count, Epoch: epoch - 1, Node: "other"}
			}
			b, err := encodeState(st)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := live.Call("Install", key, epoch, b); err != nil {
				t.Fatal(err)
			}
		}
		if len(recs) > cuts[len(cuts)-1].n {
			cuts = append(cuts, cut{len(recs), snapshot()})
		}
	}
	final := merged(t, cuts[len(cuts)-1].blob)

	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.entry]++
	}
	for _, k := range []string{"append", "extract", "install", "forget"} {
		if kinds[k] == 0 {
			t.Fatalf("history has no %s record (%v): the world proves less than it claims", k, kinds)
		}
	}
	pairs := 0
	for _, c := range cuts {
		// Floors: the very first record, and each of the last eight before
		// the checkpoint (a snapshot is a few records long, not a history).
		for from := 0; from <= c.n; from++ {
			if from > 0 && from < c.n-8 {
				from = c.n - 8
			}
			h := bareHost(t, specAt(0))
			if err := h.restoreCheckpoint(c.blob); err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[from:] {
				if err := h.replay(r.entry, r.params); err != nil {
					t.Fatalf("replay %s%v: %v", r.entry, r.params, err)
				}
			}
			blob, err := h.checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			_ = h.closeLedger()
			if got := merged(t, blob); !reflect.DeepEqual(got, final) {
				t.Fatalf("checkpoint after record %d + replay from record %d of %d diverged:\n got %v\nwant %v", c.n, from, len(recs), got, final)
			}
			pairs++
		}
	}
	t.Logf("seed %d: %d records (%v), %d (checkpoint, floor) pairs", seed, len(recs), kinds, pairs)
}

// TestReplayRefusesMalformedRecords: a record this build cannot interpret
// stops recovery with ErrBadState; it is never skipped or half-applied.
func TestReplayRefusesMalformedRecords(t *testing.T) {
	h := bareHost(t, specFor(0, map[string]string{"solo": "127.0.0.1:1"}))
	defer h.closeLedger()
	for _, r := range []journaled{
		{"append", []any{"k", uint64(1), uint64(1)}},               // the pre-store arity: client/seq were record headers
		{"append", []any{"k", "c", uint64(0), uint64(0), "three"}}, // count is not a number
		{"extract", []any{"k", "spec", []byte("{not json")}},
		{"install", []any{"k", uint64(1)}},
		{"forget", []any{7}},
		{"settled", []any{"m", "2"}},
		{"advance", []any{"not a spec"}},
		{"checkpoint", nil},
	} {
		if err := h.replay(r.entry, r.params); !errors.Is(err, ErrBadState) {
			t.Errorf("replay %s%v = %v, want ErrBadState", r.entry, r.params, err)
		}
	}
}

// FuzzRestoreCheckpoint: arbitrary bytes reaching the Restore hook or the
// key-state decoder are refused with ErrBadState (or accepted); they never
// panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	spec := specFor(0, map[string]string{"solo": "127.0.0.1:1"})
	valid, err := json.Marshal(checkpoint{
		Spec:    spec,
		Settled: map[string]uint64{"solo": 3},
		Shards: []json.RawMessage{
			json.RawMessage(`{"k":{"state":{"epoch":1,"count":2,"clients":{"c":{"seq":1,"count":2,"epoch":1,"node":"solo"}}},"fence":2},"gone":{"fence":4}}`),
			json.RawMessage(`{}`),
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"spec":"` + spec + `","shards":[{"k":{"state":null}},null,7]}`))
	f.Add([]byte(`{"spec":"1;1;1","shards":[]}`))
	f.Add([]byte(`{"epoch":1,"count":2,"clients":null,"moved":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := decodeState(data); err != nil && !errors.Is(err, ErrBadState) {
			t.Fatalf("decodeState: untyped error %v", err)
		}
		h := bareHost(t, spec)
		defer h.closeLedger()
		if err := h.restoreCheckpoint(data); err != nil {
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("restoreCheckpoint: untyped error %v", err)
			}
			return
		}
		// Whatever was accepted must be servable and checkpointable again.
		if _, err := h.checkpoint(); err != nil {
			t.Fatalf("checkpoint after an accepted restore: %v", err)
		}
	})
}
