package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Node hosts ALPS objects behind a listener, making their entry procedures
// callable as remote procedure calls. It keeps a bounded at-most-once
// cache so retried client calls replay results instead of re-executing
// entry bodies, and Close can drain in-flight invocations gracefully
// (see NodeOptions and docs/FAULTS.md).
type Node struct {
	name  string
	opts  NodeOptions
	dedup *SessionTable

	// acks is the dedup table's seat in opts.Durable (acks.go); recoverErr,
	// when its recovery failed, is what Serve and ListenAndServe return.
	acks       *wal.ObjectJournal
	recoverErr error

	// replayWait and flushGrace are the bounds handed to accepted links:
	// the constants of the same names, which tests shrink.
	replayWait, flushGrace time.Duration

	// ctx outlives individual links: dedup-tracked executions run under it
	// so a retry after a connection failure can replay their results. It
	// is cancelled at Close, after the drain grace.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	objects map[string]Callable
	links   map[*link]struct{}
	lis     net.Listener
	closed  bool

	// objSnap is a copy-on-write snapshot of objects, rebuilt by publish.
	// lookup runs once per request and reads the snapshot without taking
	// n.mu, so the serve hot path never contends with accept/publish.
	objSnap atomic.Pointer[map[string]Callable]

	draining atomic.Bool
	inflight atomic.Int64

	wg sync.WaitGroup
}

// NewNode creates a node with default options.
func NewNode(name string) *Node {
	return NewNodeWith(name, NodeOptions{})
}

// NewNodeWith creates a node with explicit resilience options.
func NewNodeWith(name string, opts NodeOptions) *Node {
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		name:       name,
		opts:       opts,
		dedup:      NewSessionTable(),
		replayWait: replayWait,
		flushGrace: flushGrace,
		ctx:        ctx,
		cancel:     cancel,
		objects:    make(map[string]Callable),
		links:      make(map[*link]struct{}),
	}
	if opts.Durable != nil {
		// At-most-once across process death: the ledger the previous
		// incarnation synced before acknowledging becomes this cache's
		// starting contents.
		n.recoverErr = n.recoverAcks(opts.Durable)
	}
	return n
}

// Name reports the node's name.
func (n *Node) Name() string { return n.name }

// Publish makes an object callable by remote clients under its object name.
func (n *Node) Publish(obj *core.Object) error {
	return n.publish(obj.Name(), obj)
}

// Callable is anything that can service entry calls: a *core.Object, a
// shard.Group, or any wrapper with the same call surface.
type Callable interface {
	CallCtx(ctx context.Context, entry string, params ...any) ([]any, error)
}

// PublishCallable makes any Callable available to remote clients under an
// explicit name. This is how a shard.Group — N replica objects behind one
// router — is hosted under a single published name.
func (n *Node) PublishCallable(name string, c Callable) error {
	if c == nil {
		return fmt.Errorf("node %s: publish %q: nil callable", n.name, name)
	}
	return n.publish(name, c)
}

func (n *Node) publish(name string, obj Callable) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("node %s: %w", n.name, ErrLinkClosed)
	}
	if _, dup := n.objects[name]; dup {
		return fmt.Errorf("node %s: object %q already published", n.name, name)
	}
	n.objects[name] = obj
	snap := make(map[string]Callable, len(n.objects))
	for k, v := range n.objects {
		snap[k] = v
	}
	n.objSnap.Store(&snap)
	return nil
}

// Objects reports the published object names, sorted.
func (n *Node) Objects() []string {
	return n.names()
}

// hooks builds the link callbacks wiring this node's dedup cache, drain
// gate and observation sinks into each accepted connection.
func (n *Node) hooks() linkHooks {
	return linkHooks{
		dedup:      n.dedup,
		serveCtx:   n.ctx,
		begin:      n.beginServe,
		end:        n.endServe,
		metrics:    n.opts.Metrics,
		durable:    n.opts.Durable,
		acks:       n.acks,
		replayWait: n.replayWait,
		flushGrace: n.flushGrace,
	}
}

func (n *Node) beginServe() bool {
	if n.draining.Load() {
		return false
	}
	n.inflight.Add(1)
	return true
}

func (n *Node) endServe() { n.inflight.Add(-1) }

// Serve accepts connections on lis until the node closes. It returns the
// accept error (net.ErrClosed after Close), or at once the ack ledger's
// recovery error. Call it on its own goroutine.
func (n *Node) Serve(lis net.Listener) error {
	if n.recoverErr != nil { // set once, before NewNodeWith returns
		_ = lis.Close()
		return n.recoverErr
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		_ = lis.Close()
		return fmt.Errorf("node %s: %w", n.name, ErrLinkClosed)
	}
	n.lis = lis
	n.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("node %s: accept: %w", n.name, err)
		}
		l := newLink(conn, n, n.hooks())
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			l.close()
			continue
		}
		n.links[l] = struct{}{}
		n.mu.Unlock()
	}
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:7100") and serves.
// The returned address is the bound address (useful with port 0).
func (n *Node) ListenAndServe(addr string) (string, error) {
	if n.recoverErr != nil {
		return "", n.recoverErr
	}
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return "", fmt.Errorf("node %s: %w", n.name, ErrLinkClosed)
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("node %s: %w", n.name, err)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.Serve(lis)
	}()
	return lis.Addr().String(), nil
}

// Close stops accepting connections and new requests, lets in-flight
// invocations finish within the configured drain grace, then cancels the
// stragglers, closes the links and waits for outstanding handlers.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	n.draining.Store(true)
	lis := n.lis
	links := make([]*link, 0, len(n.links))
	for l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()

	if lis != nil {
		_ = lis.Close()
	}
	if grace := n.opts.DrainGrace; grace > 0 {
		deadline := time.Now().Add(grace)
		for n.inflight.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	n.cancel()
	for _, l := range links {
		l.close()
	}
	n.wg.Wait()
}

// Inflight reports how many invocations are currently being served.
func (n *Node) Inflight() int64 { return n.inflight.Load() }

// lookup implements objectResolver.
func (n *Node) lookup(name string) (Callable, bool) {
	snap := n.objSnap.Load()
	if snap == nil {
		return nil, false
	}
	obj, ok := (*snap)[name]
	return obj, ok
}

// names implements objectResolver.
func (n *Node) names() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.objects))
	for name := range n.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
