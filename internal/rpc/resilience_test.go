package rpc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// startSimNode publishes obj on a fresh simnet node named "srv" and
// returns the network and node.
func startSimNode(t *testing.T, cfg simnet.Config, obj Callable, name string, nopts NodeOptions) (*simnet.Network, *Node) {
	t.Helper()
	network := simnet.New(cfg)
	node := NewNodeWith("srv", nopts)
	if err := node.PublishCallable(name, obj); err != nil {
		t.Fatal(err)
	}
	lis, err := network.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = node.Serve(lis) }()
	t.Cleanup(node.Close)
	return network, node
}

// TestRetryAfterLinkKillReplaysCachedResult is the at-most-once
// acceptance scenario: the connection dies after the entry body executed
// but before the response arrives; the retried call reconnects and gets
// the original result back without re-executing the body.
func TestRetryAfterLinkKillReplaysCachedResult(t *testing.T) {
	var (
		execMu  sync.Mutex
		execs   int
		brkReq  = make(chan struct{})
		brkDone = make(chan struct{})
	)
	obj, err := core.New("Ctr",
		core.WithEntry(core.EntrySpec{Name: "Get", Results: 1, Array: 4,
			Body: func(inv *core.Invocation) error {
				execMu.Lock()
				execs++
				n := execs
				execMu.Unlock()
				if n == 1 {
					// Hold the first execution until the test has severed
					// the client's connection, so the response frame is
					// guaranteed to be lost.
					brkReq <- struct{}{}
					<-brkDone
				}
				inv.Return(n)
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	nodeMetrics := &Metrics{}
	network, _ := startSimNode(t, simnet.Config{}, obj, "Ctr", NodeOptions{Metrics: nodeMetrics})

	first, err := network.DialFrom("c1", "srv")
	if err != nil {
		t.Fatal(err)
	}
	cliMetrics := &Metrics{}
	rem := DialConnWith(first, DialOptions{
		ClientID: "c1",
		Redial:   func() (net.Conn, error) { return network.DialFrom("c1", "srv") },
		Retry:    RetryPolicy{Max: 5, Backoff: time.Millisecond, AttemptTimeout: 2 * time.Second},
		Metrics:  cliMetrics,
	})
	defer rem.Close()

	result := make(chan []any, 1)
	callErr := make(chan error, 1)
	go func() {
		res, err := rem.Call("Ctr", "Get")
		callErr <- err
		result <- res
	}()

	select {
	case <-brkReq:
	case <-time.After(5 * time.Second):
		t.Fatal("entry body never started")
	}
	if err := simnet.BreakConn(first); err != nil {
		t.Fatal(err)
	}
	close(brkDone)

	select {
	case err := <-callErr:
		if err != nil {
			t.Fatalf("retried call failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retried call never completed")
	}
	res := <-result
	if len(res) != 1 || res[0] != 1 {
		t.Fatalf("retried call = %v, want the first execution's result 1", res)
	}
	execMu.Lock()
	finalExecs := execs
	execMu.Unlock()
	if finalExecs != 1 {
		t.Fatalf("entry body executed %d times, want exactly 1", finalExecs)
	}
	if got := cliMetrics.Retries.Value(); got == 0 {
		t.Error("client retry counter not incremented")
	}
	if got := cliMetrics.Reconnects.Value(); got == 0 {
		t.Error("client reconnect counter not incremented")
	}
	if got := nodeMetrics.DedupHits.Value(); got != 1 {
		t.Errorf("node dedup hits = %d, want 1", got)
	}
}

// TestWireLevelDuplicateSuppressed replays the exact same request frame
// over two separate connections — the rawest form of a retry — and
// checks the node executes once and answers identically both times.
func TestWireLevelDuplicateSuppressed(t *testing.T) {
	var (
		mu    sync.Mutex
		execs int
	)
	obj, err := core.New("Ctr",
		core.WithEntry(core.EntrySpec{Name: "Inc", Results: 1, Array: 4,
			Body: func(inv *core.Invocation) error {
				mu.Lock()
				execs++
				n := execs
				mu.Unlock()
				inv.Return(n)
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	network, _ := startSimNode(t, simnet.Config{}, obj, "Ctr", NodeOptions{})

	req := frame{Kind: frameRequest, ID: 1, Object: "Ctr", Entry: "Inc", Client: "raw", Seq: 7}
	roundTrip := func() frame {
		t.Helper()
		conn, err := network.Dial("srv")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		tab := wire.DefaultTable.Snapshot()
		br := bufio.NewReader(conn)
		if err := wire.WriteHello(conn); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadHello(br); err != nil {
			t.Fatal(err)
		}
		b, err := wire.AppendFrame(nil, &req, tab)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		var resp frame
		if err := wire.NewDecoder(br, tab).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := roundTrip()
	second := roundTrip()
	if first.Err != "" || second.Err != "" {
		t.Fatalf("errors: %q / %q", first.Err, second.Err)
	}
	if len(first.Results) != 1 || len(second.Results) != 1 || first.Results[0] != second.Results[0] {
		t.Fatalf("results diverged: %v vs %v", first.Results, second.Results)
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Fatalf("duplicate frame re-executed the body: execs = %d", execs)
	}
}

// TestDedupCacheEviction checks the cache stays bounded and evicts FIFO.
func TestDedupCacheEviction(t *testing.T) {
	d := newDedupCache(2)
	for seq := uint64(1); seq <= 5; seq++ {
		e, primary := d.begin(dedupKey{"c", seq})
		if !primary {
			t.Fatalf("seq %d: not primary", seq)
		}
		d.complete(dedupKey{"c", seq}, e, []any{seq}, "", errNone)
	}
	if got := d.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	// Oldest evicted: seq 4 and 5 remain, a replay of 1 re-executes.
	if _, primary := d.begin(dedupKey{"c", 1}); !primary {
		t.Error("evicted entry still replayed")
	}
	if _, primary := d.begin(dedupKey{"c", 5}); primary {
		t.Error("retained entry not replayed")
	}
}

// TestDrainGraceLetsInflightFinish: with a drain grace configured, Close
// waits for an in-flight invocation and delivers its response.
func TestDrainGraceLetsInflightFinish(t *testing.T) {
	started := make(chan struct{}, 1)
	obj, err := core.New("Slow",
		core.WithEntry(core.EntrySpec{Name: "P", Results: 1, Array: 4,
			Body: func(inv *core.Invocation) error {
				started <- struct{}{}
				time.Sleep(100 * time.Millisecond)
				inv.Return("done")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	node := NewNodeWith("drain", NodeOptions{DrainGrace: 5 * time.Second})
	if err := node.PublishCallable("Slow", obj); err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	type outcome struct {
		res []any
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := rem.Call("Slow", "P")
		got <- outcome{res, err}
	}()
	<-started
	node.Close() // drains: the in-flight call must complete
	select {
	case o := <-got:
		if o.err != nil {
			t.Fatalf("in-flight call failed during drain: %v", o.err)
		}
		if len(o.res) != 1 || o.res[0] != "done" {
			t.Fatalf("in-flight call = %v", o.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained call never returned")
	}
}

// TestDrainRejectsNewCalls: requests arriving while the node drains are
// refused with ErrClosed instead of executing.
func TestDrainRejectsNewCalls(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	obj, err := core.New("Slow",
		core.WithEntry(core.EntrySpec{Name: "P", Results: 1, Array: 4,
			Body: func(inv *core.Invocation) error {
				started <- struct{}{}
				select {
				case <-gate:
				case <-inv.Done():
				}
				inv.Return("done")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	metrics := &Metrics{}
	node := NewNodeWith("drain2", NodeOptions{DrainGrace: 5 * time.Second, Metrics: metrics})
	if err := node.PublishCallable("Slow", obj); err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rem, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	first := make(chan error, 1)
	go func() {
		_, err := rem.Call("Slow", "P")
		first <- err
	}()
	<-started

	closed := make(chan struct{})
	go func() {
		node.Close()
		close(closed)
	}()
	// Wait until the drain gate is actually up, then issue a new call.
	for !node.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	if _, err := rem.Call("Slow", "P"); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("call during drain = %v, want ErrClosed", err)
	}
	if metrics.DrainDrops.Value() == 0 {
		t.Error("drain drop counter not incremented")
	}
	close(gate) // let the in-flight call finish; drain completes
	if err := <-first; err != nil {
		t.Errorf("in-flight call failed during drain: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung in drain")
	}
}

// TestCallRetryExhaustion: with no server, a retrying call fails after
// its budget with a link error rather than hanging.
func TestCallRetryExhaustion(t *testing.T) {
	network := simnet.New(simnet.Config{})
	lis, err := network.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := network.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	_ = lis.Close()

	dials := 0
	rem := DialConnWith(conn, DialOptions{
		ClientID: "exhaust",
		Redial: func() (net.Conn, error) {
			dials++
			return network.Dial("srv")
		},
		Retry: RetryPolicy{Max: 3, Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	defer rem.Close()

	// Sever the only conn; every retry's redial then fails (no listener).
	if err := simnet.BreakConn(conn); err != nil {
		t.Fatal(err)
	}
	for !rem.link.isClosed() { // wait until the readLoop notices the break
		time.Sleep(time.Millisecond)
	}
	_, err = rem.Call("X", "P")
	if !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("err = %v, want ErrLinkClosed", err)
	}
	if dials != 4 {
		t.Errorf("redial attempts = %d, want 4 (initial + 3 retries)", dials)
	}
}

// TestClosedRemoteDoesNotReconnect: Close is terminal even with retries
// and a redial function configured.
func TestClosedRemoteDoesNotReconnect(t *testing.T) {
	obj, err := core.New("Echo",
		core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1, Array: 4,
			Body: func(inv *core.Invocation) error {
				inv.Return(inv.Param(0))
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	network, _ := startSimNode(t, simnet.Config{}, obj, "Echo", NodeOptions{})

	conn, err := network.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	redialed := false
	rem := DialConnWith(conn, DialOptions{
		Redial: func() (net.Conn, error) {
			redialed = true
			return network.Dial("srv")
		},
		Retry: RetryPolicy{Max: 3, Backoff: time.Millisecond},
	})
	rem.Close()
	if _, err := rem.Call("Echo", "P", 1); !errors.Is(err, errRemoteClosed) {
		t.Fatalf("call on closed remote = %v", err)
	}
	if redialed {
		t.Error("closed remote attempted a reconnect")
	}
}

// TestPerCallDeadline: CallWith's Deadline bounds the whole call.
func TestPerCallDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	obj, err := core.New("Slow",
		core.WithEntry(core.EntrySpec{Name: "P", Results: 1, Array: 4,
			Body: func(inv *core.Invocation) error {
				select {
				case <-gate:
				case <-inv.Done():
				}
				inv.Return("late")
				return nil
			}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	network, _ := startSimNode(t, simnet.Config{}, obj, "Slow", NodeOptions{})
	conn, err := network.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	rem := DialConnWith(conn, DialOptions{})
	defer rem.Close()

	start := time.Now()
	_, err = rem.CallWith(context.Background(), CallOptions{Deadline: 50 * time.Millisecond}, "Slow", "P")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced: took %v", elapsed)
	}
}

// TestDialListTimeoutsConfigurable: the satellite requirement that the
// old hardcoded 10s timeouts are now options with the same defaults.
func TestDialListTimeoutsConfigurable(t *testing.T) {
	if def := (DialOptions{}).withDefaults(); def.Timeout != 10*time.Second || def.ListTimeout != 10*time.Second {
		t.Fatalf("defaults = %v/%v, want 10s/10s", def.Timeout, def.ListTimeout)
	}

	// A listener that accepts but never answers the hello: List must give
	// up after the configured (short) timeout instead of 10s.
	network := simnet.New(simnet.Config{})
	if _, err := network.Listen("mute"); err != nil {
		t.Fatal(err)
	}
	conn, err := network.Dial("mute")
	if err != nil {
		t.Fatal(err)
	}
	rem := DialConnWith(conn, DialOptions{ListTimeout: 50 * time.Millisecond})
	defer rem.Close()
	start := time.Now()
	if _, err := rem.List(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("List on mute endpoint = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ListTimeout not honored: %v", elapsed)
	}
}
