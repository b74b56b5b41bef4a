package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/testutil"
)

// testFabricNode is one in-process fabric node: a Host published on a
// real rpc.Node over loopback TCP, with an optional journal directory so
// tests can stop and restart it "crashed" (every acknowledged mutation is
// already synced, so close-and-reopen exercises the same recovery path a
// SIGKILL does; the e2e harness adds the real SIGKILL).
type testFabricNode struct {
	id   string
	addr string
	dir  string
	host *Host
	node *rpc.Node
}

func startFabricNode(t *testing.T, id, addr, spec, dir string, maxPending int) *testFabricNode {
	t.Helper()
	return startFabricNodeWith(t, addr, HostOptions{ID: id, Spec: spec, Shards: 2, MaxPending: maxPending, Dir: dir})
}

// startFabricNodeWith mounts the node on the Host's store, as alpsd does.
func startFabricNodeWith(t *testing.T, addr string, opts HostOptions) *testFabricNode {
	t.Helper()
	return startFabricNodeOn(t, addr, opts, rpc.NodeOptions{Durable: opts.Store})
}

func startFabricNodeOn(t *testing.T, addr string, opts HostOptions, nodeOpts rpc.NodeOptions) *testFabricNode {
	t.Helper()
	opts.Logf = func(format string, args ...any) { t.Logf(format, args...) }
	host, err := NewHost(opts)
	if err != nil {
		t.Fatalf("start %s: %v", opts.ID, err)
	}
	node := rpc.NewNodeWith(opts.ID, nodeOpts)
	if err := node.PublishCallable("fabric", host); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	go func() { _ = node.Serve(lis) }()
	return &testFabricNode{id: opts.ID, addr: lis.Addr().String(), dir: opts.Dir, host: host, node: node}
}

func (n *testFabricNode) stop() {
	n.node.Close()
	_ = n.host.Close()
}

// specFor builds a ring spec for members laid out on pre-bound listeners.
func specFor(epoch uint64, members map[string]string) string {
	r, err := NewRing(epoch, 42, 32, members)
	if err != nil {
		panic(err)
	}
	return r.Spec()
}

// reserveAddrs grabs n loopback ports so ring specs can name addresses
// before the nodes exist.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lis.Addr().String()
		_ = lis.Close()
	}
	return addrs
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), testutil.WaitBudget(t))
	t.Cleanup(cancel)
	return ctx
}

// execsInServerOrder arranges acknowledged execs into each key's
// execution order: Count is assigned by the owning shard under its
// manager's serialization, so sorting a key's execs by Count reconstructs
// the order the servers actually ran them in, across clients and homes.
func execsInServerOrder(execs []Exec) []conformance.KeyedExec {
	byKey := make(map[string][]Exec)
	for _, e := range execs {
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []conformance.KeyedExec
	for _, k := range keys {
		es := byKey[k]
		sort.Slice(es, func(i, j int) bool { return es[i].Count < es[j].Count })
		for _, e := range es {
			out = append(out, conformance.KeyedExec{
				Key: e.Key, Client: e.Client, Seq: int(e.Seq), Shard: e.Node, Epoch: e.Epoch,
			})
		}
	}
	return out
}

// TestFabricAppendAndAudit: a 3-node ring serves keyed appends from
// several clients; every ack names the ring's predicted owner, the
// conformance oracle passes, and server-side audits agree exactly with
// the client-side ledgers.
func TestFabricAppendAndAudit(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	members := map[string]string{"n00": addrs[0], "n01": addrs[1], "n02": addrs[2]}
	spec := specFor(0, members)
	var nodes []*testFabricNode
	for id, addr := range members {
		n := startFabricNode(t, id, addr, spec, "", 0)
		nodes = append(nodes, n)
		defer n.stop()
	}
	ctx := testCtx(t)

	const clients, keys, per = 4, 12, 10
	var mu sync.Mutex
	var all []Exec
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := NewRouter(spec, RouterOptions{ClientID: fmt.Sprintf("c%d", c)})
			if err != nil {
				errCh <- err
				return
			}
			defer r.Close()
			for s := uint64(0); s < per; s++ {
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("key-%d", k)
					exec, err := r.Append(ctx, key, s, nil)
					if err != nil {
						errCh <- fmt.Errorf("client %d key %s seq %d: %w", c, key, s, err)
						return
					}
					mu.Lock()
					all = append(all, exec)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	ring, _ := ParseSpec(spec)
	for _, e := range all {
		if want := ring.Owner(e.Key); e.Node != want {
			t.Fatalf("key %s executed on %s, ring says %s", e.Key, e.Node, want)
		}
		if e.Epoch != 0 {
			t.Fatalf("key %s executed at epoch %d before any reshard", e.Key, e.Epoch)
		}
	}
	if divs := conformance.CheckKeyOrder(execsInServerOrder(all)); len(divs) != 0 {
		t.Fatalf("oracle divergences: %v", divs)
	}

	r, err := NewRouter(spec, RouterOptions{ClientID: "auditor"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		a, err := r.Audit(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Found || a.Count != clients*per {
			t.Fatalf("audit %s: found=%v count=%d, want %d", key, a.Found, a.Count, clients*per)
		}
		for c := 0; c < clients; c++ {
			if got := a.Clients[fmt.Sprintf("c%d", c)]; got != per-1 {
				t.Fatalf("audit %s client c%d: last seq %d, want %d", key, c, got, per-1)
			}
		}
	}
}

// TestFabricLiveReshard is the cross-process extension of the shard
// package's TestKeyAffinityOrdering: clients hammer keyed appends while
// the ring doubles 3 -> 6 under them. Every append must ack exactly once,
// per-key order must hold across the handoff (epoch-aware oracle), and
// the moved keys' dedup history must survive the move.
func TestFabricLiveReshard(t *testing.T) {
	addrs := reserveAddrs(t, 6)
	members := map[string]string{"n00": addrs[0], "n01": addrs[1], "n02": addrs[2]}
	grown := map[string]string{
		"n00": addrs[0], "n01": addrs[1], "n02": addrs[2],
		"n03": addrs[3], "n04": addrs[4], "n05": addrs[5],
	}
	spec := specFor(0, members)
	grownSpec := specFor(1, grown)

	var nodes []*testFabricNode
	for id, addr := range members {
		n := startFabricNode(t, id, addr, spec, "", 0)
		nodes = append(nodes, n)
		defer n.stop()
	}
	ctx := testCtx(t)

	const clients, keys, per = 4, 16, 30
	var mu sync.Mutex
	var all []Exec
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	reshardAt := make(chan struct{})
	var reshardOnce sync.Once
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := NewRouter(spec, RouterOptions{ClientID: fmt.Sprintf("c%d", c)})
			if err != nil {
				errCh <- err
				return
			}
			defer r.Close()
			for s := uint64(0); s < per; s++ {
				if s == per/3 {
					reshardOnce.Do(func() { close(reshardAt) })
				}
				for k := 0; k < keys; k++ {
					key := fmt.Sprintf("key-%d", k)
					exec, err := r.Append(ctx, key, s, nil)
					if err != nil {
						errCh <- fmt.Errorf("client %d key %s seq %d: %w", c, key, s, err)
						return
					}
					mu.Lock()
					all = append(all, exec)
					mu.Unlock()
				}
			}
		}(c)
	}

	// Mid-traffic: boot the second half of the ring and double it.
	<-reshardAt
	for _, id := range []string{"n03", "n04", "n05"} {
		n := startFabricNode(t, id, grown[id], grownSpec, "", 0)
		nodes = append(nodes, n)
		defer n.stop()
	}
	admin, err := NewRouter(spec, RouterOptions{ClientID: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if _, err := admin.Reshard(ctx, grownSpec); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if len(all) != clients*keys*per {
		t.Fatalf("acked %d appends, want %d", len(all), clients*keys*per)
	}
	if divs := conformance.CheckKeyOrder(execsInServerOrder(all)); len(divs) != 0 {
		t.Fatalf("oracle divergences across live reshard: %v", divs)
	}

	// The reshard must actually have moved traffic: some key must have
	// executed at both epochs, on different nodes.
	movedKeys := 0
	byKey := make(map[string]map[string]bool)
	for _, e := range all {
		if byKey[e.Key] == nil {
			byKey[e.Key] = make(map[string]bool)
		}
		byKey[e.Key][fmt.Sprintf("%s@%d", e.Node, e.Epoch)] = true
	}
	for _, homes := range byKey {
		if len(homes) > 1 {
			movedKeys++
		}
	}
	if movedKeys == 0 {
		t.Fatal("no key observed a live handoff; reshard did not overlap traffic")
	}
	t.Logf("live reshard: %d/%d keys moved mid-traffic", movedKeys, keys)

	// Convergence: every member settles the new epoch, and audits agree
	// with the client ledgers.
	grownRing, _ := ParseSpec(grownSpec)
	testutil.WaitUntil(t, "all members settled epoch 1, and each one's settled vector says so", func() bool {
		for _, id := range grownRing.Members() {
			_, completed, settled, err := admin.Status(ctx, id)
			if err != nil || completed < 1 {
				return false
			}
			for _, m := range grownRing.Members() {
				if settled[m] < 1 {
					return false
				}
			}
		}
		return true
	})
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		a, err := admin.Audit(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count != clients*per {
			t.Fatalf("audit %s after reshard: count %d, want %d", key, a.Count, clients*per)
		}
		if want := grownRing.Owner(key); a.Node != want {
			t.Fatalf("audit %s served by %s, grown ring says %s", key, a.Node, want)
		}
	}
}

// TestFabricDuplicateForwardDedup drives the same (client, seq) append
// twice — the wire-level shape of a retry after a lost ack. The second call
// must answer from the ledger with the original count, never re-execute.
func TestFabricDuplicateForwardDedup(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	members := map[string]string{"n00": addrs[0]}
	spec := specFor(0, members)
	n := startFabricNode(t, "n00", addrs[0], spec, "", 0)
	defer n.stop()
	ctx := testCtx(t)

	rem, err := rpc.DialWith(addrs[0], rpc.DialOptions{ClientID: "raw"})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	for s := uint64(0); s < 3; s++ {
		res, err := rem.CallCtx(ctx, "fabric", "Append", "dup-key", "cA", s, []byte(nil))
		if err != nil {
			t.Fatal(err)
		}
		if res[0].(string) != statusOK || res[4].(string) != "" {
			t.Fatalf("seq %d first delivery: status %v info %v", s, res[0], res[4])
		}
	}
	// Duplicate of the latest seq: ledger answer, same count, marked dup.
	res, err := rem.CallCtx(ctx, "fabric", "Append", "dup-key", "cA", uint64(2), []byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(string) != statusOK || res[3].(uint64) != 3 || res[4].(string) != "dup" {
		t.Fatalf("duplicate delivery: status %v count %v info %v", res[0], res[3], res[4])
	}
	// A gap (skipping seq 3 to 5) is refused with the expected seq.
	res, err = rem.CallCtx(ctx, "fabric", "Append", "dup-key", "cA", uint64(5), []byte(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(string) != statusGap || res[3].(uint64) != 3 {
		t.Fatalf("gap delivery: status %v want-seq %v", res[0], res[3])
	}
	// Audit shows exactly 3 executions.
	r, err := NewRouter(spec, RouterOptions{ClientID: "auditor"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, err := r.Audit(ctx, "dup-key")
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 3 || a.Clients["cA"] != 2 {
		t.Fatalf("audit after duplicates: %+v", a)
	}
}

// countingObject is a plain published object with no at-most-once of its
// own: the node's table is what keeps its retries from re-executing.
type countingObject struct{ n atomic.Int64 }

func (c *countingObject) CallCtx(context.Context, string, ...any) ([]any, error) {
	return []any{c.n.Add(1)}, nil
}

// TestFabricTrafficKeepsClientRetries: the Host owns the at-most-once of
// every fabric call, so fabric traffic takes no entry in the node's table
// and cannot evict a client's retry from it. A client's seq 1 on a plain
// object beside the Host, then two tables' worth of appends and one more,
// then the same seq from a fresh link: the node replays the first response.
func TestFabricTrafficKeepsClientRetries(t *testing.T) {
	addr := reserveAddrs(t, 1)[0]
	spec := specFor(0, map[string]string{"n": addr})
	nm := &rpc.Metrics{}
	n := startFabricNodeOn(t, addr, HostOptions{ID: "n", Spec: spec, Shards: 2}, rpc.NodeOptions{Metrics: nm})
	defer n.stop()
	obj := &countingObject{}
	if err := n.node.PublishCallable("Count", obj); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t)
	seq1 := func() []any {
		t.Helper()
		rem, err := rpc.DialWith(addr, rpc.DialOptions{ClientID: "c"})
		if err != nil {
			t.Fatal(err)
		}
		defer rem.Close()
		res, err := rem.CallCtx(ctx, "Count", "Tick")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := seq1()

	r, err := NewRouter(spec, RouterOptions{ClientID: "appender"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const appends = 2*1024 + 1 // the node table's default capacity is 1024
	for seq := uint64(0); seq < appends; seq++ {
		if _, err := r.Append(ctx, "k", seq, nil); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if hits := nm.DedupHits.Value(); hits != 0 {
		t.Fatalf("the node answered %d fabric calls from its table; no fabric caller resends a seq", hits)
	}
	if again := seq1(); fmt.Sprint(again) != fmt.Sprint(first) || obj.n.Load() != 1 || nm.DedupHits.Value() != 1 {
		t.Fatalf("retry of seq 1 after %d appends = %v (first %v): body ran %d times, %d dedup hits; want a replay: 1 and 1",
			appends, again, first, obj.n.Load(), nm.DedupHits.Value())
	}
}

// TestFabricOverloadPropagation drives appends at a 1-slot admission
// bound while the owning shard's manager is kept deterministically busy
// (a stream of large Install states, each decoded inline on the manager
// for milliseconds — racing bare appends against a microsecond manager
// never builds a queue). Sheds must surface to the client as a typed
// *OverloadError naming the owning node, unwrapping to core.ErrOverload,
// with a retry hint that makes retrying the SAME sequence number safe.
func TestFabricOverloadPropagation(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	members := map[string]string{"n00": addrs[0]}
	spec := specFor(0, members)
	n := startFabricNode(t, "n00", addrs[0], spec, "", 1)
	defer n.stop()
	ctx := testCtx(t)

	const workers = 8
	routers := make([]*Router, workers)
	for w := range routers {
		r, err := NewRouter(spec, RouterOptions{ClientID: fmt.Sprintf("w%d", w)})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		routers[w] = r
		// Warm the connection so pressure measures admission, not dialing.
		if _, err := r.Append(ctx, "hot", 0, nil); err != nil {
			t.Fatal(err)
		}
	}

	// A pad key on the SAME ledger shard as "hot": Install traffic to it
	// occupies that shard's manager without disturbing the hot key's
	// history (admission bounds are per shard, so a co-located key is
	// required for interference).
	padKey := ""
	hotShard := n.host.group.ShardFor("Append", "hot")
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("pad-%d", i)
		if n.host.group.ShardFor("Append", k) == hotShard {
			padKey = k
			break
		}
	}
	if padKey == "" {
		t.Fatal("no pad key co-located with hot")
	}
	big := newKeyState(0)
	big.Count = 1
	for i := 0; i < 30000; i++ {
		big.Clients[fmt.Sprintf("ghost-%05d", i)] = clientRec{Seq: 1, Count: 1}
	}
	bigB := encodeState(big)
	stop := make(chan struct{})
	installerDone := make(chan error, 1)
	go func() {
		rem, err := rpc.DialWith(addrs[0], rpc.DialOptions{ClientID: "loader"})
		if err != nil {
			installerDone <- err
			return
		}
		defer rem.Close()
		for epoch := uint64(1); ; epoch++ {
			select {
			case <-stop:
				installerDone <- nil
				return
			default:
			}
			if _, err := rem.CallCtx(ctx, "fabric", "Install", padKey, epoch, bigB, spec); err != nil {
				installerDone <- fmt.Errorf("install %d: %w", epoch, err)
				return
			}
		}
	}()

	var mu sync.Mutex
	var overloads, oks int
	seqs := make([]uint64, workers) // next seq per worker; 0 already acked
	for w := range seqs {
		seqs[w] = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shedLast := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				exec, err := routers[w].Append(ctx, "hot", seqs[w], nil)
				if err == nil {
					if shedLast && exec.Info == "dup" {
						t.Errorf("worker %d seq %d: shed call had executed anyway", w, seqs[w])
						return
					}
					shedLast = false
					mu.Lock()
					oks++
					mu.Unlock()
					seqs[w]++
					continue
				}
				var oe *OverloadError
				if !errors.As(err, &oe) {
					if ctx.Err() != nil {
						return
					}
					t.Errorf("worker %d: %v (want *OverloadError)", w, err)
					return
				}
				if oe.Node != "n00" {
					t.Errorf("overload names node %q, want n00", oe.Node)
					return
				}
				if !errors.Is(err, core.ErrOverload) {
					t.Errorf("overload does not unwrap to core.ErrOverload: %v", err)
					return
				}
				if oe.RetryAfter <= 0 {
					t.Errorf("overload carries no retry hint: %+v", oe)
					return
				}
				mu.Lock()
				overloads++
				mu.Unlock()
				shedLast = true
				// Typed retry hint: back off, then loop retries the SAME
				// seq — the shed call never executed, so no gap and no dup.
				time.Sleep(oe.RetryAfter)
			}
		}(w)
	}
	testutil.WaitUntil(t, "overloads observed under a busy manager", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return overloads >= 2*workers || t.Failed()
	})
	close(stop)
	wg.Wait()
	if err := <-installerDone; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	t.Logf("overload propagation: %d sheds, %d acks", overloads, oks)

	// No lost and no duplicated executions: the server-side count must
	// equal the warm-up appends plus every acknowledged append.
	a, err := routers[0].Audit(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != uint64(workers+oks) {
		t.Fatalf("audit count %d, want %d (lost or duplicated executions)", a.Count, workers+oks)
	}
	for w := range seqs {
		if got := a.Clients[fmt.Sprintf("w%d", w)]; got != seqs[w]-1 {
			t.Fatalf("worker %d: server last seq %d, client last acked %d", w, got, seqs[w]-1)
		}
	}
}

// TestFabricRecovery: a journaled node is stopped and reopened from its
// data dir; the ledger (counts, dedup tails) must survive, duplicates of
// pre-crash appends must answer from the recovered ledger, and fresh
// appends continue the sequence.
func TestFabricRecovery(t *testing.T) {
	addrs := reserveAddrs(t, 1)
	members := map[string]string{"n00": addrs[0]}
	spec := specFor(0, members)
	dir := t.TempDir()
	n := startFabricNode(t, "n00", addrs[0], spec, dir, 0)
	ctx := testCtx(t)

	r, err := NewRouter(spec, RouterOptions{ClientID: "cA"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := uint64(0); s < 5; s++ {
		if _, err := r.Append(ctx, "durable-key", s, nil); err != nil {
			t.Fatal(err)
		}
	}
	n.stop()

	n = startFabricNode(t, "n00", addrs[0], spec, dir, 0)
	defer n.stop()

	// The Router's link died with the node; its Remote redials on its own.
	// Duplicate of the last pre-crash append: recovered ledger answers.
	exec, err := r.Append(ctx, "durable-key", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Count != 5 || exec.Info != "dup" {
		t.Fatalf("post-recovery duplicate: %+v (want count 5, dup)", exec)
	}
	// The sequence continues exactly where it stopped.
	exec, err = r.Append(ctx, "durable-key", 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Count != 6 || exec.Info != "" {
		t.Fatalf("post-recovery append: %+v (want count 6, fresh)", exec)
	}
}

// TestFabricReshardWhileNodeDead: the ring advances while one member is
// down. Keys whose history lives on the dead node must NOT accept fresh
// parallel histories at their new owner (the settled-vector gate holds
// them in retry), and once the dead node restarts from its journal the
// handoff completes and the sequence resumes with dedup intact.
func TestFabricReshardWhileNodeDead(t *testing.T) {
	addrs := reserveAddrs(t, 3)
	members := map[string]string{"n00": addrs[0], "n01": addrs[1]}
	grown := map[string]string{"n00": addrs[0], "n01": addrs[1], "n02": addrs[2]}
	spec := specFor(0, members)
	grownSpec := specFor(1, grown)
	oldRing, _ := ParseSpec(spec)
	grownRing, _ := ParseSpec(grownSpec)

	// Find a key that moves n01 -> n02 on the grow.
	movingKey := ""
	for k := 0; k < 4096; k++ {
		key := fmt.Sprintf("key-%d", k)
		if oldRing.Owner(key) == "n01" && grownRing.Owner(key) == "n02" {
			movingKey = key
			break
		}
	}
	if movingKey == "" {
		t.Fatal("no key moves n01 -> n02 under this seed")
	}

	dirs := map[string]string{"n00": t.TempDir(), "n01": t.TempDir(), "n02": t.TempDir()}
	n0 := startFabricNode(t, "n00", addrs[0], spec, dirs["n00"], 0)
	defer n0.stop()
	n1 := startFabricNode(t, "n01", addrs[1], spec, dirs["n01"], 0)
	ctx := testCtx(t)

	r, err := NewRouter(spec, RouterOptions{ClientID: "cA"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for s := uint64(0); s < 4; s++ {
		if _, err := r.Append(ctx, movingKey, s, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the key's home, then advance the ring without it.
	n1.stop()
	n2 := startFabricNode(t, "n02", addrs[2], grownSpec, dirs["n02"], 0)
	defer n2.stop()
	admin, err := NewRouter(spec, RouterOptions{ClientID: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if _, err := admin.Reshard(ctx, grownSpec); err != nil {
		t.Fatal(err)
	}

	// The new owner must refuse to start a parallel history while the
	// dead node's settled level lags: a short-budget append only sees
	// retry statuses.
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	gated, err := NewRouter(grownSpec, RouterOptions{ClientID: "cA"})
	if err != nil {
		t.Fatal(err)
	}
	gated.retries = 8
	defer gated.Close()
	_, err = gated.Append(shortCtx, movingKey, 4, nil)
	cancel()
	if err == nil {
		t.Fatal("append to gated key succeeded while its history was on a dead node")
	}
	if !errors.Is(err, ErrRetriesExhausted) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated append failed with %v, want retries-exhausted/deadline", err)
	}

	// Restart the dead node from its journal; anti-entropy teaches it the
	// new ring, it hands the key off, and the append goes through with
	// the full dedup history.
	n1 = startFabricNode(t, "n01", addrs[1], spec, dirs["n01"], 0)
	defer n1.stop()
	exec, err := gated.Append(ctx, movingKey, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Count != 5 {
		t.Fatalf("resumed append count %d, want 5 (history lost?)", exec.Count)
	}
	if exec.Node != "n02" || exec.Epoch != 1 {
		t.Fatalf("resumed append executed on %s@%d, want n02@1", exec.Node, exec.Epoch)
	}
	// And the pre-crash duplicate still answers from the moved ledger.
	dup, err := gated.Append(ctx, movingKey, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dup.Count != 5 || dup.Info != "dup" {
		t.Fatalf("post-handoff duplicate: %+v", dup)
	}
}
