package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/wire"
)

// framePool recycles frame structs on the decode path; the wire decoder
// fully overwrites a frame before returning it, so recycling cannot leak
// values between messages.
var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame {
	f := framePool.Get().(*frame)
	*f = frame{}
	return f
}

func putFrame(f *frame) { framePool.Put(f) }

// respChPool recycles the per-call response channels. A channel is returned
// only after its pending-table entry is deleted and the buffer drained, so a
// recycled channel can never deliver a stale response to a later call.
var respChPool = sync.Pool{New: func() any { return make(chan frame, 1) }}

// maxQueued bounds the encoded bytes waiting for the write loop. Senders
// crossing it block until the writer drains — backpressure instead of
// unbounded buffering when the peer reads slowly.
const maxQueued = 256 << 10

// readBufSize is the read-side bufio buffer. Batched writes arrive as
// batched reads, so one syscall fills many frames' worth.
const readBufSize = 64 << 10

// objectResolver resolves object names to callable objects (the node's
// registry on the serving side; empty on pure clients).
type objectResolver interface {
	lookup(name string) (Callable, bool)
	names() []string
}

// linkHooks are the owner-supplied callbacks of a link: a node wires in
// its dedup cache, drain gate and node-lifetime execution context; a
// client wires in its metrics sink. The zero value is valid
// (no dedup, no drain gate, no observation).
type linkHooks struct {
	dedup      *SessionTable      // at-most-once table (nodes only)
	serveCtx   context.Context    // execution ctx for dedup-tracked calls (node lifetime)
	begin      func() bool        // drain gate; false rejects the request
	end        func()             // paired with a successful begin
	metrics    *Metrics           // nil-safe counters
	durable    *wal.Store         // durability store (nodes with -data-dir only)
	acks       *wal.ObjectJournal // the node's ack ledger in durable (acks.go)
	replayWait time.Duration      // duplicate wait bound (with dedup)
	flushGrace time.Duration      // graceful-close flush bound; 0 = flushGrace
}

// serverLinger is how long parked servers must go unused before all but
// one of them leave (reap). Immediate release at the first moment a link
// has nothing in flight would end and restart servers at every pause of a
// busy stream; see WIRE.md.
const serverLinger = 100 * time.Millisecond

// A duplicate request waits at most replayWait for the in-flight primary
// execution of its (client, seq) before answering ErrReplayTimeout: the
// wire carries no per-call deadline, so the node bounds the wait itself or
// a stalled primary pins the duplicate's serve goroutine forever. A
// graceful link close waits at most flushGrace for queued frames to reach
// the wire, so a peer that stopped reading cannot turn Close into a hang.
const (
	replayWait = 30 * time.Second
	flushGrace = time.Second
)

// link is one end of a connection: it can issue requests, serve requests
// (when it has a resolver), and route channel messages both ways. Frames
// are wire-codec binary over a version-negotiated stream; many calls ride
// the link concurrently via the pending table, and writers coalesce their
// frames into batched flushes.
type link struct {
	conn  net.Conn
	res   objectResolver
	hooks linkHooks

	// table is this link's immutable snapshot of the registered user types.
	// Snapshotting at creation means concurrent Register calls can never
	// race the encoder or change the meaning of frames in flight.
	table *wire.TypeTable

	// The write path is a combining queue — the group-commit discipline
	// the WAL and the manager mailbox already proved, without a dedicated
	// writer goroutine. Senders encode into pooled buffers OUTSIDE any
	// lock (the binary codec is stateless, unlike the gob stream) and
	// append the framed bytes to wbuf under wmu. The first sender to find
	// no combiner active becomes it: it swaps wbuf out and commits it with
	// one conn.Write, looping until the queue is empty. Frames appended
	// while its syscall is in flight all ride the next one, so batch size
	// adapts to load with no latency timer and no handoff hop: an idle
	// link writes a lone frame synchronously, a saturated link coalesces
	// dozens of frames per syscall.
	wmu      sync.Mutex
	wcond    *sync.Cond // backpressure: senders wait while wbuf > maxQueued
	wbuf     []byte     // encoded frames awaiting the combiner
	wscratch []byte     // combiner's swap buffer (alternates with wbuf)
	writing  bool       // a combiner is draining the queue

	mu       sync.Mutex
	pending  map[uint64]chan frame
	chans    map[string]*channel.Chan // locally published channels
	proxies  map[string]*channel.Chan // outbound proxies for received ChanRefs
	closed   bool
	closeErr error

	nextID  atomic.Uint64
	nextRef atomic.Uint64
	done    chan struct{}
	wg      sync.WaitGroup

	// ctx is cancelled at shutdown so served calls still waiting to be
	// accepted by a remote object's manager are withdrawn.
	ctx    context.Context
	cancel context.CancelFunc

	// The serve goroutines (serveLoop). The read loop hands each request to
	// a parked server and starts one only when none is parked, so a steady
	// request stream starts no goroutine and grows no stack. A server parks
	// again after each request; servers that no request reached for
	// serverLinger leave but one (reap), and shutdown releases them all.
	// Guarded by smu.
	smu      sync.Mutex
	idle     []chan *frame // parked servers' hand-off channels, LIFO
	servers  int           // live servers, parked or serving
	sclosed  bool          // shut down: servers leave instead of parking
	sstarted uint64        // servers ever started
	reaper   *time.Timer   // runs reap; nil until first armed
	reaping  bool          // reaper armed
	unused   int           // servers parked since the reap was armed, none reached since
}

func newLink(conn net.Conn, res objectResolver, hooks linkHooks) *link {
	ctx, cancel := context.WithCancel(context.Background())
	l := &link{
		conn:    conn,
		res:     res,
		hooks:   hooks,
		table:   wire.DefaultTable.Snapshot(),
		pending: make(map[uint64]chan frame),
		chans:   make(map[string]*channel.Chan),
		proxies: make(map[string]*channel.Chan),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	l.wcond = sync.NewCond(&l.wmu)
	// Announce the protocol as the first bytes on the queue: both sides
	// read their peer's hello before decoding frames, and queueing it
	// ahead of any frame keeps the write loop the only writer.
	hb := make([]byte, 0, 8)
	if err := wire.WriteHello((*sliceWriter)(&hb)); err != nil {
		l.shutdown(fmt.Errorf("rpc: hello: %v: %w", err, ErrLinkClosed))
	}
	l.wbuf = hb
	// Flush the hello eagerly even if no frame ever follows: both sides
	// read their peer's banner before decoding frames, and a gob-era or
	// foreign peer should see our protocol announced before we kill its
	// connection (readLoop's version-skew path waits for this flush).
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.flushQueued()
	}()
	l.wg.Add(1)
	go l.readLoop()
	return l
}

// sliceWriter adapts an append target to io.Writer for WriteHello.
type sliceWriter []byte

func (w *sliceWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// send encodes one frame, queues it, and drains the queue if no combiner
// is active (see the wbuf comment on the link struct).
//
// Two failure classes, deliberately distinct: an ENCODE failure
// (unsupported value type) happens before any byte is committed, so it is
// returned to the caller and the link survives; a WRITE failure tears the
// whole link down — the combiner that hits it reports it, senders whose
// frames it was carrying observe it through l.done.
func (l *link) send(f *frame) error { return l.sendFrame(f, nil) }

// sendFrame is send; a serve goroutine sending its response (srv) parks on
// the way (park): as soon as its frame is queued behind an active combiner
// — before that combiner can write it — or else once it has written the
// queue itself or found the link closed. So a response reaches the peer
// only after its server parked or while that server is the one combiner,
// and a parked server has no I/O left. A frame that fails to encode parks
// nothing: its server still owes a response.
func (l *link) sendFrame(f *frame, srv *server) error {
	buf := wire.GetBuf()
	b, err := wire.AppendFrame(*buf, f, l.table)
	if err != nil {
		wire.PutBuf(buf)
		return err
	}
	*buf = b

	l.wmu.Lock()
	for len(l.wbuf) >= maxQueued && l.writing && !l.closedLocked() {
		l.wcond.Wait()
	}
	if l.closedLocked() {
		l.wmu.Unlock()
		wire.PutBuf(buf)
		if srv != nil {
			l.park(srv)
		}
		return l.closeReason()
	}
	l.wbuf = append(l.wbuf, b...)
	if m := l.hooks.metrics; m != nil {
		m.FramesSent.Inc()
	}
	if l.writing {
		// An active combiner will carry these bytes in its next batch.
		if srv != nil {
			l.park(srv)
		}
		l.wmu.Unlock()
		wire.PutBuf(buf)
		return nil
	}
	err = l.drainLocked()
	wire.PutBuf(buf)
	if srv != nil {
		l.park(srv)
	}
	return err
}

// flushQueued drains the write queue if no combiner is active — used to
// push the hello out at link creation.
func (l *link) flushQueued() {
	l.wmu.Lock()
	if l.writing || l.closedLocked() {
		l.wmu.Unlock()
		return
	}
	_ = l.drainLocked()
}

// drainLocked makes the caller the combiner: it repeatedly swaps wbuf out
// and commits it with one conn.Write outside the lock, until the queue is
// empty. Called with wmu held; returns with it released.
func (l *link) drainLocked() error {
	l.writing = true
	for len(l.wbuf) > 0 {
		// Yield before swapping: senders already runnable get to append
		// their frames to this batch instead of starting the next one.
		// On a loaded box (or a single core) this turns lock-step call
		// schedules into multi-frame syscalls; on an idle link it costs
		// one scheduler round trip.
		l.wmu.Unlock()
		runtime.Gosched()
		l.wmu.Lock()
		batch := l.wbuf
		if cap(l.wscratch) > 1<<20 {
			// Don't let one burst pin a huge buffer forever.
			l.wscratch = nil
		}
		l.wbuf = l.wscratch[:0]
		l.wmu.Unlock()
		l.wcond.Broadcast()

		_, err := l.conn.Write(batch)
		if err != nil {
			// A failed write may have left a partial frame on the wire;
			// the stream cannot resynchronize, so the whole link is dead.
			err = fmt.Errorf("rpc: write: %v: %w", err, ErrLinkClosed)
			l.shutdown(err)
			l.wmu.Lock()
			l.writing = false
			l.wmu.Unlock()
			return err
		}
		if m := l.hooks.metrics; m != nil {
			// Frames-per-flush = FramesSent / Flushes; mean batch size =
			// BytesSent / Flushes.
			m.Flushes.Inc()
			m.BytesSent.Add(uint64(len(batch)))
		}
		l.wmu.Lock()
		l.wscratch = batch
	}
	l.writing = false
	l.wmu.Unlock()
	return nil
}

// closedLocked reports closure without taking l.mu — reading l.closed
// under wmu would invert the lock order, so the done channel is the
// source of truth here.
func (l *link) closedLocked() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// isClosed reports whether the link has shut down.
func (l *link) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// call issues a request and waits for its response. client and seq carry
// the logical call identity for the node's at-most-once dedup; they stay
// stable across retries while the link-level frame ID does not.
func (l *link) call(ctx context.Context, object, entry string, params []any, client string, seq uint64) ([]any, error) {
	id := l.nextID.Add(1)
	respCh := respChPool.Get().(chan frame)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		respChPool.Put(respCh)
		return nil, fmt.Errorf("rpc: call %s.%s: %w", object, entry, l.closeReason())
	}
	l.pending[id] = respCh
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.pending, id)
		l.mu.Unlock()
		// The read loop only sends while holding l.mu with the entry still
		// present, so after the delete above no further send can land; one
		// drain leaves the channel provably empty for its next user.
		select {
		case <-respCh:
		default:
		}
		respChPool.Put(respCh)
	}()

	req := frame{Kind: frameRequest, ID: id, Object: object, Entry: entry,
		Params: params, Client: client, Seq: seq}
	if err := l.send(&req); err != nil {
		return nil, fmt.Errorf("rpc: call %s.%s: %w", object, entry, err)
	}
	if ctx.Done() == nil {
		// Uncancellable context (the common hot path): a plain receive —
		// shutdown's poison sweep guarantees a zero-kind frame arrives if
		// the link dies, so no select and no l.done arm are needed.
		resp := <-respCh
		if resp.Kind == 0 {
			return nil, fmt.Errorf("rpc: call %s.%s interrupted: %w", object, entry, l.closeReason())
		}
		if err := decodeErr(resp.Err, resp.ErrKind); err != nil {
			return nil, err
		}
		return resp.Results, nil
	}
	select {
	case resp := <-respCh:
		if resp.Kind == 0 {
			// The send succeeded but the connection died before the
			// response: fail fast and name the call, so the failure is
			// attributable.
			return nil, fmt.Errorf("rpc: call %s.%s interrupted: %w", object, entry, l.closeReason())
		}
		if err := decodeErr(resp.Err, resp.ErrKind); err != nil {
			return nil, err
		}
		return resp.Results, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// list asks the peer for its hosted object names.
func (l *link) list(ctx context.Context) ([]string, error) {
	id := l.nextID.Add(1)
	respCh := respChPool.Get().(chan frame)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		respChPool.Put(respCh)
		return nil, l.closeReason()
	}
	l.pending[id] = respCh
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.pending, id)
		l.mu.Unlock()
		select {
		case <-respCh:
		default:
		}
		respChPool.Put(respCh)
	}()

	req := frame{Kind: frameList, ID: id}
	if err := l.send(&req); err != nil {
		return nil, err
	}
	select {
	case resp := <-respCh:
		if resp.Kind == 0 { // shutdown's poison sweep: the link died
			return nil, l.closeReason()
		}
		return resp.Names, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// publishChan registers ch under a unique name and returns the ChanRef to
// embed in call parameters. Messages arriving for the ref are delivered
// into ch.
func (l *link) publishChan(name string, ch *channel.Chan) ChanRef {
	if name == "" {
		name = fmt.Sprintf("chan-%d", l.nextRef.Add(1))
	}
	l.mu.Lock()
	l.chans[name] = ch
	l.mu.Unlock()
	return ChanRef{Name: name}
}

// resolveParams replaces incoming ChanRef values with live proxy channels
// whose sends are forwarded back over this link.
func (l *link) resolveParams(params []any) []any {
	out := params
	for i, p := range params {
		ref, ok := p.(ChanRef)
		if !ok {
			continue
		}
		out[i] = l.proxyFor(ref)
	}
	return out
}

func (l *link) proxyFor(ref ChanRef) *channel.Chan {
	l.mu.Lock()
	if proxy, ok := l.proxies[ref.Name]; ok {
		l.mu.Unlock()
		return proxy
	}
	proxy := channel.New("proxy:" + ref.Name)
	l.proxies[ref.Name] = proxy
	l.mu.Unlock()

	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			msg, ok := proxy.RecvDone(l.done)
			if !ok {
				return
			}
			fr := frame{Kind: frameChanSend, Chan: ref.Name, Params: msg}
			if err := l.send(&fr); err != nil {
				if errors.Is(err, ErrLinkClosed) {
					return
				}
				// Encode failure: this message is undeliverable but the
				// link (and the channel) live on; drop it and keep
				// forwarding — matching a local unbuffered channel whose
				// reader ignores a malformed message.
				continue
			}
		}
	}()
	return proxy
}

// readLoop is the link's single reader: it verifies the peer's hello, then
// decodes and dispatches frames until the stream dies. Dispatch never
// blocks on a slow consumer — responses land in buffered per-call channels
// (extra sends dropped), channel messages go into unbounded ALPS channels,
// each request goes to a serve goroutine of its own (dispatch) and list
// queries to a goroutine of their own — so one slow waiter cannot stall
// delivery for the calls pipelined behind it.
func (l *link) readLoop() {
	defer l.wg.Done()
	br := bufio.NewReaderSize(l.conn, readBufSize)
	if err := wire.ReadHello(br); err != nil {
		// Wrap with BOTH sentinels: callers check ErrLinkClosed for
		// retry/teardown, operators check ErrVersionSkew to tell a
		// mixed-version cluster from rotten bytes. Our own hello goes out
		// first: its flush runs on another goroutine and would otherwise
		// race this shutdown, leaving the peer a bare EOF to diagnose.
		l.flushPending()
		l.shutdown(fmt.Errorf("%w: %w", ErrLinkClosed, err))
		return
	}
	dec := wire.NewDecoder(br, l.table)
	m := l.hooks.metrics
	// One resident frame serves every inline-dispatched message; only
	// request frames — whose ownership passes to a serving goroutine —
	// go through the pool.
	f := getFrame()
	defer func() { putFrame(f) }()
	for {
		err := dec.Decode(f)
		if m != nil {
			m.BytesRecv.Add(dec.BytesRead())
		}
		if err != nil {
			// Includes the typed ErrBadFrame path: corrupted or truncated
			// frames (CRC mismatch, bad tags) classify via errors.Is and
			// fail every pending call instead of hanging it.
			l.shutdown(fmt.Errorf("%w: %w", ErrLinkClosed, err))
			return
		}
		if m != nil {
			m.FramesRecv.Inc()
		}
		switch f.Kind {
		case frameRequest:
			req := f
			f = getFrame()
			l.dispatch(req)
		case frameResponse, frameListResp:
			// Deliver while holding l.mu: call/list delete their pending
			// entry under the same lock before recycling the channel, so a
			// send can never land on a channel a later call owns. The
			// buffered send cannot block — a duplicate response (one send
			// already buffered) is dropped by the default arm.
			l.mu.Lock()
			if respCh, ok := l.pending[f.ID]; ok {
				select {
				case respCh <- *f:
				default:
				}
			}
			l.mu.Unlock()
		case frameChanSend:
			l.mu.Lock()
			ch, ok := l.chans[f.Chan]
			l.mu.Unlock()
			if ok {
				// Never blocks: ALPS channels are unbounded. The message
				// slice is handed off; the recycled frame drops its
				// reference at the next getFrame reset.
				_ = ch.Send(f.Params...)
			}
		case frameList:
			// Off the read loop: the reply's send could block on a full
			// write buffer and stall response dispatch otherwise.
			go func(id uint64) {
				names := []string(nil)
				if l.res != nil {
					names = l.res.names()
				}
				resp := frame{Kind: frameListResp, ID: id, Names: names}
				_ = l.send(&resp)
			}(f.ID)
		}
	}
}

// dispatch hands a request to the most recently parked server of the link,
// or starts a server for it when none is parked. Each request being served
// has a goroutine of its own (the paper's light-weight process per call),
// reused from call to call. A server parks as soon as its response is
// queued behind the combiner or written (park), so a response reaches the
// peer only after its server parked or while that server is the one
// combiner, and a peer with n calls in flight makes a link start at most
// n+1 servers. Servers are detached: the drain gate (hooks begin/end)
// already accounts in-flight work for Node.Close, and link teardown must
// not wait out a long-running body.
func (l *link) dispatch(req *frame) {
	l.smu.Lock()
	n := len(l.idle)
	if n == 0 {
		l.servers++
		l.sstarted++
		l.unused = 0
		l.smu.Unlock()
		go l.serveLoop(req)
		return
	}
	next := l.idle[n-1]
	l.idle[n-1] = nil
	l.idle = l.idle[:n-1]
	l.unused = min(l.unused, n-1)
	l.smu.Unlock()
	next <- req // buffered and empty: its server takes it once parked
}

// A server is a serve goroutine's state across the requests it serves.
type server struct {
	next   chan *frame // its next request, handed over while it is parked
	parked bool        // done with its request (park)
	stay   bool        // parked rather than leaving: it takes a next request
}

// serveLoop is one server: it serves f and every request the read loop
// hands it while it is parked, until the link is shut down or releases it
// (a nil request).
func (l *link) serveLoop(f *frame) {
	srv := server{next: make(chan *frame, 1)}
	for f != nil {
		l.serve(f, &srv)
		if !srv.stay {
			return
		}
		srv.parked, srv.stay = false, false
		f = <-srv.next
	}
}

// serve runs one request through the drain gate and sends its response;
// the server parks on the way (sendFrame) or, with no response owed, once
// the call is done.
func (l *link) serve(f *frame, srv *server) {
	resp := frame{Kind: frameResponse, ID: f.ID}
	gated := l.hooks.begin == nil || l.hooks.begin()
	owed := true
	if gated {
		owed = l.serveRequest(f, &resp)
	} else {
		// The node is draining: refuse new work so Close can finish.
		if m := l.hooks.metrics; m != nil {
			m.DrainDrops.Inc()
		}
		resp.Err, resp.ErrKind = encodeErr(fmt.Errorf("node draining: %w", core.ErrClosed))
	}
	putFrame(f)
	if owed {
		l.sendResponse(&resp, srv)
	}
	if !srv.parked {
		l.park(srv)
	}
	if gated && l.hooks.end != nil {
		l.hooks.end()
	}
}

// park ends srv's request: srv parks for the read loop's next request, or
// leaves once the link is shut down. A second parked server arms the reap.
func (l *link) park(srv *server) {
	srv.parked = true
	l.smu.Lock()
	if srv.stay = !l.sclosed; srv.stay {
		l.idle = append(l.idle, srv.next)
		if len(l.idle) > 1 && !l.reaping {
			l.armReapLocked()
		}
	} else {
		l.servers--
	}
	l.smu.Unlock()
}

// armReapLocked schedules reap serverLinger from now; the servers parked
// now are the candidates.
func (l *link) armReapLocked() {
	l.reaping, l.unused = true, len(l.idle)
	if l.reaper == nil {
		l.reaper = time.AfterFunc(serverLinger, l.reap)
	} else {
		l.reaper.Reset(serverLinger)
	}
}

// reap makes the servers that stayed parked since the reap was armed leave
// but one: the bottom unused of the LIFO, which no request reached. So a
// link keeps one parked server once it has nothing in flight, and a busy
// one gives back what a past burst left. It re-arms while two are parked.
func (l *link) reap() {
	l.smu.Lock()
	defer l.smu.Unlock()
	l.reaping = false
	if l.sclosed {
		return
	}
	if l.unused > 1 {
		l.releaseLocked(l.unused - 1)
	}
	if len(l.idle) > 1 {
		l.armReapLocked()
	}
}

// releaseLocked makes the k servers parked longest leave.
func (l *link) releaseLocked(k int) {
	for _, next := range l.idle[:k] {
		next <- nil
	}
	n := copy(l.idle, l.idle[k:])
	clear(l.idle[n:])
	l.idle = l.idle[:n]
	l.servers -= k
}

// releaseServers makes every parked server leave, and every other one at
// its next park: the link is shut down.
func (l *link) releaseServers() {
	l.smu.Lock()
	l.sclosed = true
	if l.reaper != nil {
		l.reaper.Stop()
	}
	l.releaseLocked(len(l.idle))
	l.smu.Unlock()
}

// sendResponse delivers a served request's response, downgrading to an
// error response if the results themselves fail to encode — the client
// must never be left waiting on a response that died locally.
func (l *link) sendResponse(r *frame, srv *server) {
	err := l.sendFrame(r, srv)
	if err == nil || srv.parked {
		return
	}
	fallback := frame{Kind: frameResponse, ID: r.ID}
	fallback.Err, fallback.ErrKind = encodeErr(fmt.Errorf("rpc: encoding response: %v", err))
	_ = l.sendFrame(&fallback, srv)
}

// serveRequest executes one incoming request inside the drain gate and
// fills resp with its response; it reports false when none is owed (the
// link died while a duplicate waited). The frame is only borrowed:
// everything the call needs is copied into locals before the blocking
// call, since serve recycles f as soon as serveRequest returns.
func (l *link) serveRequest(f, resp *frame) bool {
	var obj Callable
	ok := false
	if l.res != nil {
		obj, ok = l.res.lookup(f.Object)
	}
	if !ok {
		resp.Err, resp.ErrKind = encodeErr(fmt.Errorf("object %q: %w", f.Object, ErrUnknownObject))
		return true
	}

	// At-most-once: the first arrival of a (client, seq) executes; a
	// retry waits for that execution and replays its response. The wait is
	// bounded by replayWait — the wire carries no per-call deadline, so
	// without the bound a primary stuck in a guard that never fires would
	// pin this goroutine forever (and, before the bound existed, did).
	// Session-aware objects (sessionCallable) own their at-most-once, so
	// the node keeps no entry for their calls.
	sc, session := obj.(sessionCallable)
	session = session && f.Client != ""
	var entry *dedupEntry
	if f.Client != "" && l.hooks.dedup != nil && !session {
		var primary bool
		entry, primary = l.hooks.dedup.begin(dedupKey{f.Client, f.Seq})
		if !primary {
			return l.replayDuplicate(f.Object, f.Entry, f.Client, f.Seq, entry, resp)
		}
	}

	objName, entryName := f.Object, f.Entry
	client, seq := f.Client, f.Seq
	params := l.resolveParams(f.Params)
	ctx := l.ctx
	if client != "" && l.hooks.serveCtx != nil {
		// Executions with an at-most-once identity outlive their arrival
		// link: a retry must observe this execution's result, so the body
		// is tied to the node's lifetime, not the connection's.
		ctx = l.hooks.serveCtx
	}
	// The call runs on this server's goroutine, and so does a body the
	// object starts for it in the default pool mode: core runs a started
	// body on the caller that waits for it.
	var results []any
	var err error
	if session {
		results, err = sc.CallSession(ctx, client, seq, entryName, params)
	} else {
		results, err = obj.CallCtx(ctx, entryName, params...)
	}
	r := resp
	r.Results = results
	if err != nil {
		r.Results = nil
		r.Err, r.ErrKind = encodeErr(err)
		if m := l.hooks.metrics; m != nil {
			switch r.ErrKind {
			case errOverload:
				m.Overloads.Inc()
			case errPoisoned:
				m.Poisons.Inc()
			}
		}
	}
	// Durable at-most-once: journal the acknowledgement in the node's ack
	// ledger and sync it before the response (or any replay of it) can
	// leave the node. The ack is appended AFTER the call's outcome record
	// in the same log, so this one group-committed sync also makes the
	// state transition durable — zero lost acknowledged calls. Failed
	// calls are not journaled: no transition happened, and re-executing
	// them on retry after a crash is the desired behaviour.
	var ackLSN uint64
	if st := l.hooks.durable; st != nil && entry != nil && err == nil && st.DurableEntry(objName, entryName) {
		lsn, aerr := l.hooks.acks.Append(ackRecord, AckEntry{Client: client, Seq: seq, Results: r.Results}.Tuple())
		if aerr != nil {
			r.Results = nil
			r.Err, r.ErrKind = encodeErr(fmt.Errorf("rpc: %s.%s executed but journal append failed: %w", objName, entryName, aerr))
		} else {
			ackLSN = lsn
			entry.lsn = lsn // published to duplicates by complete's close(done)
		}
	}
	if entry != nil {
		// Record the outcome even if the arrival link is already dead:
		// the retry that replaces it replays from here. Completing
		// before the sync is safe — every responder (this goroutine
		// and any duplicate) still waits on the ack LSN before
		// sending, and the ack ledger's checkpoint syncs past every
		// record appended before its dump (acks.go).
		l.hooks.dedup.complete(dedupKey{client, seq}, entry, r.Results, r.Err, r.ErrKind)
	}
	if ackLSN != 0 {
		if aerr := l.hooks.durable.WaitSynced(ackLSN); aerr != nil {
			r.Results = nil
			r.Err, r.ErrKind = encodeErr(fmt.Errorf("rpc: %s.%s executed but not durable: %w", objName, entryName, aerr))
		}
	}
	return true
}

// replayDuplicate answers a retry of a (client, seq) whose primary
// execution is recorded or still in flight: it waits — bounded by
// replayWait — for the primary's completion and fills resp with its
// response. The wait is bounded because the wire carries no per-call
// deadline; without the bound a primary stuck in a guard that never fires
// would pin this goroutine forever (and, before the bound existed, did).
// It reports false when the link died first: no response is owed.
func (l *link) replayDuplicate(objName, entryName, client string, seq uint64, entry *dedupEntry, resp *frame) bool {
	if m := l.hooks.metrics; m != nil {
		m.DedupHits.Inc()
	}
	timeout := time.NewTimer(l.hooks.replayWait)
	defer timeout.Stop()
	select {
	case <-l.hooks.dedup.waitCh(entry):
		// The primary wrote entry.lsn before closing done; sync through it
		// so a replayed acknowledgement is as durable as the original
		// would have been.
		if st := l.hooks.durable; st != nil && entry.lsn != 0 {
			if err := st.WaitSynced(entry.lsn); err != nil {
				resp.Err, resp.ErrKind = encodeErr(fmt.Errorf("rpc: replay %s.%s: durability: %w", objName, entryName, err))
				return true
			}
		}
		resp.Results, resp.Err, resp.ErrKind = entry.results, entry.errMsg, entry.errKind
		return true
	case <-timeout.C:
		if m := l.hooks.metrics; m != nil {
			m.ReplayTimeouts.Inc()
		}
		resp.Err, resp.ErrKind = encodeErr(fmt.Errorf(
			"rpc: duplicate of %s.%s (client %s seq %d) still in flight after %v: %w",
			objName, entryName, client, seq, l.hooks.replayWait, ErrReplayTimeout))
		return true
	case <-l.done:
		return false
	}
}

func (l *link) closeReason() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closeErr != nil {
		return l.closeErr
	}
	return ErrLinkClosed
}

// shutdown tears the link down exactly once, failing pending calls.
func (l *link) shutdown(reason error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.closeErr = reason
	// Poison every pending call with a zero-kind frame: the hot receive
	// path in call() is a plain channel recv (no l.done select arm), so
	// link death must reach waiters through their own channels. Calls
	// registering after this sweep see l.closed under the same mutex and
	// fail before ever blocking.
	for _, ch := range l.pending {
		select {
		case ch <- frame{}:
		default:
		}
	}
	proxies := make([]*channel.Chan, 0, len(l.proxies))
	for _, p := range l.proxies {
		proxies = append(proxies, p)
	}
	l.mu.Unlock()

	close(l.done)
	l.releaseServers()
	// Release senders blocked on backpressure. The lock pairs the
	// broadcast with their closedLocked re-check: a sender between its
	// check and its Wait still holds wmu, so it cannot miss the wakeup.
	l.wmu.Lock()
	l.wcond.Broadcast()
	l.wmu.Unlock()
	l.cancel()
	_ = l.conn.Close()
	for _, p := range proxies {
		p.Close()
	}
}

// close shuts the link down gracefully: frames already committed to the
// write queue — responses whose drain-gate accounting has completed but
// whose flush is still pending — reach the wire first, then the link
// tears down and waits for its goroutines.
func (l *link) close() {
	l.flushPending()
	l.shutdown(ErrLinkClosed)
	l.wg.Wait()
}

// flushPending waits, briefly and best-effort, until the write queue is
// empty and no combiner is mid-batch. Bounded by flushGrace: a peer that
// stopped reading must not turn a graceful close into a hang.
func (l *link) flushPending() {
	grace := l.hooks.flushGrace
	if grace == 0 {
		grace = flushGrace
	}
	deadline := time.Now().Add(grace)
	l.wmu.Lock()
	for (len(l.wbuf) > 0 || l.writing) && !l.closedLocked() {
		l.wmu.Unlock()
		runtime.Gosched()
		if time.Now().After(deadline) {
			return
		}
		l.wmu.Lock()
	}
	l.wmu.Unlock()
}
