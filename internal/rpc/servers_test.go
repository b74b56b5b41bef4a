package rpc

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

// serverCounts reads a link's serve-goroutine counters.
func serverCounts(l *link) (started uint64, live, parked int) {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.sstarted, l.servers, len(l.idle)
}

// TestServeGoroutinesReused: 1 000 requests, 8 in flight, over one link
// start at most 9 serve goroutines — 8 running requests plus one still
// writing a response its caller has already read — where one goroutine
// per request started 1 000. One of the 8 is a call held in its body for
// the whole run. Once the link is idle, one server stays parked, and the
// link's shutdown releases that one too.
func TestServeGoroutinesReused(t *testing.T) {
	const (
		inflight = 8
		calls    = 1000
	)
	release := make(chan struct{})
	obj, err := core.New("Echo",
		core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1, Array: inflight,
			Body: func(inv *core.Invocation) error { inv.Return(inv.Param(0)); return nil }}),
		core.WithEntry(core.EntrySpec{Name: "Hold",
			Body: func(*core.Invocation) error { <-release; return nil }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	node := NewNode("echo")
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, stop := servePipes(node)
	defer stop()
	defer node.Close()
	rem := DialConn(lis.dial(t))
	var l *link
	testutil.WaitUntil(t, "the node to accept the link", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		for x := range node.links {
			l = x
		}
		return l != nil
	})

	held := make(chan error, 1)
	go func() {
		_, err := rem.Call("Echo", "Hold")
		held <- err
	}()
	testutil.WaitUntil(t, "the held call to run", func() bool { st, _ := obj.EntryStats("Hold"); return st.Calls == 1 })
	var wg sync.WaitGroup
	for k := 0; k < inflight-1; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < calls-1; i += inflight - 1 {
				if res, err := rem.Call("Echo", "P", i); err != nil || res[0] != i {
					t.Errorf("Echo.P(%d) = %v, %v", i, res, err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("Echo.Hold: %v", err)
	}
	started, _, _ := serverCounts(l)
	t.Logf("%d serve goroutines started for %d requests", started, calls)
	if started > inflight+1 {
		t.Errorf("%d serve goroutines started for %d requests, %d in flight; want <= %d",
			started, calls, inflight, inflight+1)
	}
	testutil.WaitUntil(t, "one parked server on the idle link", func() bool {
		_, live, parked := serverCounts(l)
		return live == 1 && parked == 1
	})
	rem.Close()
	testutil.WaitUntil(t, "the shut-down link to release its server", func() bool {
		_, live, parked := serverCounts(l)
		return live == 0 && parked == 0
	})
}

// TestServeBurstServersLeave: a burst of calls on a link that still has a
// call in flight leaves as many parked servers as it had calls; those that
// no request reaches for serverLinger leave but one, while the held call
// still runs.
func TestServeBurstServersLeave(t *testing.T) {
	const burst = 32
	release := make(chan struct{})
	gate := make(chan struct{})
	obj, err := core.New("Echo",
		core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1, Array: burst,
			Body: func(inv *core.Invocation) error { <-gate; inv.Return(inv.Param(0)); return nil }}),
		core.WithEntry(core.EntrySpec{Name: "Hold",
			Body: func(*core.Invocation) error { <-release; return nil }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	node := NewNode("echo")
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, stop := servePipes(node)
	defer stop()
	defer node.Close()
	rem := DialConn(lis.dial(t))
	defer rem.Close()
	var l *link
	testutil.WaitUntil(t, "the node to accept the link", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		for x := range node.links {
			l = x
		}
		return l != nil
	})

	held := make(chan error, 1)
	go func() {
		_, err := rem.Call("Echo", "Hold")
		held <- err
	}()
	testutil.WaitUntil(t, "the held call to run", func() bool { st, _ := obj.EntryStats("Hold"); return st.Calls == 1 })
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := rem.Call("Echo", "P", i); err != nil || res[0] != i {
				t.Errorf("Echo.P(%d) = %v, %v", i, res, err)
			}
		}(i)
	}
	// Every burst call runs at once, so each has a server of its own.
	testutil.WaitUntil(t, "the burst to run", func() bool { st, _ := obj.EntryStats("P"); return st.Calls == burst })
	close(gate)
	wg.Wait()
	if started, _, _ := serverCounts(l); started < burst+1 {
		t.Fatalf("%d serve goroutines started for %d concurrent calls", started, burst+1)
	}
	testutil.WaitUntil(t, "the burst's servers to leave but one", func() bool {
		_, live, parked := serverCounts(l)
		return live == 2 && parked == 1
	})
	close(release)
	if err := <-held; err != nil {
		t.Fatalf("Echo.Hold: %v", err)
	}
}
