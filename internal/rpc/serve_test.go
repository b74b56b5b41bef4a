package rpc

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/testutil"
	"repro/internal/wal"
	"repro/internal/wire"
)

// pipeListener hands a node the server ends of net.Pipe connections. The
// pipe is unbuffered, so a peer that stops reading wedges the node's
// writer at once — no kernel socket buffer to fill first.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error   { p.once.Do(func() { close(p.done) }); return nil }
func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial returns the client end of a fresh connection to the node.
func (p *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case p.conns <- server:
		return client
	case <-time.After(2 * time.Second):
		t.Fatal("node did not accept the connection")
		return nil
	}
}

// servePipes starts node on a pipe listener; the serve goroutine is joined
// by the returned stop function (call it after node.Close).
func servePipes(node *Node) (lis *pipeListener, stop func()) {
	lis = newPipeListener()
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = node.Serve(lis)
	}()
	return lis, func() { <-served }
}

// managed builds a manager-run object whose single intercepted entry runs
// body under manager exclusivity (accept → execute → finish).
func managed(t *testing.T, name string, spec core.EntrySpec, opts core.ObjectOptions) *core.Object {
	t.Helper()
	obj, err := core.New(name,
		core.WithEntry(spec),
		core.WithManager(func(m *core.Mgr) {
			_ = m.Loop(core.OnAccept(spec.Name, func(a *core.Accepted) {
				_, _ = m.Execute(a)
			}))
		}, core.Intercept(spec.Name)),
		core.WithObjectOptions(opts),
	)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestWedgedPeerDoesNotStallOtherLinks is the slow-reader case with a
// typed outcome. Client A pipelines calls with large results to a managed
// object and stops reading: its link's write queue must stop at exactly
// the frames it takes to reach the maxQueued bound, with every further
// responder parked on backpressure and still counted in flight. Client B,
// on a second link to the SAME object, must keep completing calls within
// callBound each — a serve goroutine blocked on A's link holds nothing B
// needs. Node.Close must then return within DrainGrace + FlushGrace (plus
// closeSlack of scheduling tolerance): the parked responders exhaust the
// drain grace, the wedged queue exhausts the flush grace, and neither wait
// may be unbounded.
func TestWedgedPeerDoesNotStallOtherLinks(t *testing.T) {
	const (
		drainGrace = 150 * time.Millisecond
		flushGrace = 150 * time.Millisecond
		closeSlack = 400 * time.Millisecond
		callBound  = 2 * time.Second
		blobSize   = 32 << 10
		wedged     = 2 * maxQueued / blobSize // twice what the queue can hold
		bCalls     = 50
	)
	obj := managed(t, "Blob", core.EntrySpec{Name: "Get", Params: 1, Results: 1,
		Body: func(inv *core.Invocation) error {
			inv.Return(make([]byte, inv.Param(0).(int)))
			return nil
		}}, core.ObjectOptions{})
	defer obj.Close()
	nm := &Metrics{}
	node := NewNodeWith("wedge", NodeOptions{DrainGrace: drainGrace, Metrics: nm})
	node.flushGrace = flushGrace
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, stop := servePipes(node)

	// Client A speaks the protocol by hand: read the node's hello, announce
	// ours, send one request and never read again — the responder becomes
	// the link's combiner and sticks in conn.Write.
	a := lis.dial(t)
	defer a.Close()
	if err := wire.ReadHello(a); err != nil {
		t.Fatalf("A: %v", err)
	}
	table := wire.DefaultTable.Snapshot()
	request := func(buf []byte, id int) []byte {
		buf, err := wire.AppendFrame(buf, &frame{Kind: frameRequest, ID: uint64(id),
			Object: "Blob", Entry: "Get", Params: []any{blobSize}}, table)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if err := wire.WriteHello(a); err != nil {
		t.Fatalf("A: %v", err)
	}
	var aLink *link
	testutil.WaitUntil(t, "the node to register A's link", func() bool {
		node.mu.Lock()
		defer node.mu.Unlock()
		for l := range node.links {
			aLink = l
		}
		return aLink != nil
	})
	queued := func() (n int, writing bool) {
		aLink.wmu.Lock()
		defer aLink.wmu.Unlock()
		return len(aLink.wbuf), aLink.writing
	}
	// The goroutine that flushed the hello stays the combiner until it
	// finds the queue empty; a response queued before then rides its
	// batch, and no responder is left in conn.Write to count in flight.
	testutil.WaitUntil(t, "the hello's flush to finish", func() bool {
		_, writing := queued()
		return !writing
	})
	if _, err := a.Write(request(nil, 1)); err != nil {
		t.Fatalf("A: %v", err)
	}
	// Queued (FramesSent) and then swapped out of the queue by a combiner
	// that is still writing: the frame is inside conn.Write. Without the
	// counter, the hello's own flush could satisfy the wait.
	testutil.WaitUntil(t, "A's first response to wedge the combiner", func() bool {
		n, writing := queued()
		return nm.FramesSent.Value() == 1 && writing && n == 0
	})

	// Behind the wedged combiner the rest pile up: exactly as many response
	// frames as it takes to reach maxQueued are queued, every later
	// responder parks on backpressure and stays counted in flight.
	resp, err := wire.AppendFrame(nil, &frame{Kind: frameResponse, ID: 2,
		Results: []any{make([]byte, blobSize)}}, table)
	if err != nil {
		t.Fatal(err)
	}
	fit := (maxQueued + len(resp) - 1) / len(resp)
	var rest []byte
	for id := 2; id <= 1+wedged; id++ {
		rest = request(rest, id)
	}
	if _, err := a.Write(rest); err != nil {
		t.Fatalf("A: %v", err)
	}
	parked := int64(wedged - fit)
	testutil.WaitUntil(t, "A's queue to fill and the other responders to park", func() bool {
		n, _ := queued()
		return n >= maxQueued && node.Inflight() == 1+parked
	})
	if n, _ := queued(); n != fit*len(resp) {
		t.Fatalf("A's queue holds %d bytes, want exactly %d frames = %d (bound %d)", n, fit, fit*len(resp), maxQueued)
	}

	// Client B, second link, same object.
	b := DialConn(lis.dial(t))
	defer b.Close()
	for i := 0; i < bCalls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), callBound)
		res, err := b.CallCtx(ctx, "Blob", "Get", 8)
		cancel()
		if err != nil {
			t.Fatalf("B call %d behind wedged A: %v", i, err)
		}
		if got := len(res[0].([]byte)); got != 8 {
			t.Fatalf("B call %d: %d result bytes, want 8", i, got)
		}
	}
	// B's own responders have left; A's are where they were.
	testutil.WaitUntil(t, "only A's wedged responders to remain in flight", func() bool { return node.Inflight() == 1+parked })
	if n, _ := queued(); n != fit*len(resp) {
		t.Fatalf("A's queue moved to %d bytes while nobody read it", n)
	}

	start := time.Now()
	node.Close()
	elapsed := time.Since(start)
	stop()
	if elapsed < drainGrace {
		t.Fatalf("Close returned in %v: responders parked on A's link were not drained for (DrainGrace %v)", elapsed, drainGrace)
	}
	if limit := drainGrace + flushGrace + closeSlack; elapsed > limit {
		t.Fatalf("Close took %v, want <= DrainGrace+FlushGrace+slack = %v", elapsed, limit)
	}
	// Teardown released every parked responder.
	testutil.WaitUntil(t, "the parked responders to leave after Close", func() bool { return node.Inflight() == 0 })
}

// TestManagedJournaledDrainIdleBurst drives the one serve path through the
// schedule that once broke the completion dispatcher — drain, idle, burst
// — on the object shape every alpsd actually hosts: manager-run AND
// journaled, behind a node with a durability store (in-memory FS). N
// clients carry (client, seq) identities; every call must execute exactly
// once, every response must reach its own caller exactly once (node frames
// sent == client frames received == calls), no response may come from the
// dedup cache when nobody retried, and the goroutine count must return to
// its pre-burst baseline after the burst and to its pre-test baseline
// after Node.Close — no serve goroutine, and no helper goroutine per
// object, is left behind.
func TestManagedJournaledDrainIdleBurst(t *testing.T) {
	const (
		clients  = 8
		inflight = 8  // concurrent callers per client
		perPhase = 16 // calls per caller per phase
	)
	// Exact, not testutil.SettleGoroutines' +2 tolerance: the leak this
	// guards against is one goroutine per request or per object.
	settle := func(when string, base int) {
		testutil.WaitUntil(t, fmt.Sprintf("%s: goroutines back to %d", when, base),
			func() bool { return runtime.NumGoroutine() <= base })
	}
	before := runtime.NumGoroutine()

	fs := wal.NewFailFS()
	store, err := wal.OpenStore("data", wal.StoreOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	execs := make(map[string]int) // written under manager exclusivity
	obj := managed(t, "Ledger", core.EntrySpec{Name: "Add", Params: 2, Results: 2,
		Body: func(inv *core.Invocation) error {
			execs[fmt.Sprintf("%s/%d", inv.Param(0), inv.Param(1))]++
			inv.Return(inv.Param(0), inv.Param(1))
			return nil
		}}, core.ObjectOptions{Journal: store.Journal("Ledger", wal.JournalOptions{})})
	nodeM := &Metrics{}
	node := NewNodeWith("ledger", NodeOptions{Durable: store, Metrics: nodeM})
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	lis, stop := servePipes(node)

	clientM := &Metrics{}
	rems := make([]*Remote, clients)
	for c := range rems {
		rems[c] = DialConnWith(lis.dial(t), DialOptions{ClientID: fmt.Sprintf("c%d", c), Metrics: clientM})
	}

	// phase issues perPhase calls from every caller of every client and
	// checks each response is the caller's own.
	phase := func(p int) {
		var wg sync.WaitGroup
		for c, rem := range rems {
			for k := 0; k < inflight; k++ {
				wg.Add(1)
				go func(c, k int, rem *Remote) {
					defer wg.Done()
					for i := 0; i < perPhase; i++ {
						seq := (p*inflight+k)*perPhase + i
						res, err := rem.Call("Ledger", "Add", rem.ClientID(), seq)
						if err != nil {
							t.Errorf("client %d seq %d: %v", c, seq, err)
							return
						}
						if len(res) != 2 || res[0] != rem.ClientID() || res[1] != seq {
							t.Errorf("client %d seq %d: got response %v", c, seq, res)
						}
					}
				}(c, k, rem)
			}
		}
		wg.Wait()
	}

	phase(0) // drain
	testutil.WaitUntil(t, "the node to go idle", func() bool { return node.Inflight() == 0 })
	// Idle: links, store and manager are up, nothing is being served.
	time.Sleep(10 * time.Millisecond)
	base := runtime.NumGoroutine()
	phase(1) // burst
	settle("after the burst", base)

	const calls = 2 * clients * inflight * perPhase
	if got := nodeM.FramesSent.Value(); got != calls {
		t.Errorf("node sent %d response frames for %d calls", got, calls)
	}
	if got := clientM.FramesRecv.Value(); got != calls {
		t.Errorf("clients received %d response frames for %d calls", got, calls)
	}
	if hits := nodeM.DedupHits.Value(); hits != 0 {
		t.Errorf("%d dedup hits without a single retry", hits)
	}
	if r := clientM.Retries.Value(); r != 0 {
		t.Errorf("%d client retries on a healthy transport", r)
	}
	if fs.Syncs() == 0 {
		t.Error("no journal sync: acknowledgements left the node before they were durable")
	}

	for _, rem := range rems {
		rem.Close()
	}
	node.Close()
	stop()
	if err := obj.Close(); err != nil {
		t.Error(err)
	}
	if err := store.Close(); err != nil {
		t.Error(err)
	}
	// The manager has exited (obj.Close joined it): execs is ours now.
	if len(execs) != calls {
		t.Errorf("%d distinct (client, seq) executed, want %d", len(execs), calls)
	}
	for id, n := range execs {
		if n != 1 {
			t.Errorf("%s executed %d times", id, n)
		}
	}
	settle("after Close", before)
}
