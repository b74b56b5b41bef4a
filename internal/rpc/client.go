package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/backoff"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/trace"
)

// errRemoteClosed fails calls on a Remote the user has Closed. It is
// deliberately not ErrLinkClosed so the retry loop never resurrects a
// closed client.
var errRemoteClosed = errors.New("rpc: remote is closed")

// Remote is a client connection to a node. It can call remote objects,
// list them, and publish channels for executing remote procedures to send
// messages back on. With a Redial function configured it survives link
// failures: calls are retried with exponential backoff over fresh
// connections, and the node's dedup cache guarantees each logical call
// executes at most once (docs/FAULTS.md).
type Remote struct {
	opts DialOptions
	seq  atomic.Uint64
	seed uint64 // the client ID's backoff seed

	mu     sync.Mutex
	link   *link
	pubs   map[string]*channel.Chan // published channels, re-announced on reconnect
	closed bool

	nextRef atomic.Uint64
}

// Dial connects to a node at addr with default options.
func Dial(addr string) (*Remote, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to a node at addr: NewRemote plus an eager first
// dial, so an unreachable node fails here rather than on the first call.
func DialWith(addr string, opts DialOptions) (*Remote, error) {
	r := NewRemote(addr, opts)
	if err := r.connect(); err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return r, nil
}

// DialMulti connects to a replicated group: it dials the first reachable
// address and rotates through the list on every redial, so the Remote
// follows leadership — a link death (the leader was killed) or an
// ErrNotLeader response (we reached a follower) bounces the transport and
// the retry lands on the next address, same sequence number. Supplying
// opts.Redial overrides the rotation entirely (the injection point for
// simnet transports, which rotate in the caller's own dial function).
func DialMulti(addrs []string, opts DialOptions) (*Remote, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpc: dial multi: no addresses")
	}
	opts = opts.withDefaults()
	if opts.Redial == nil {
		timeout := opts.Timeout
		var next atomic.Uint64
		opts.Redial = func() (net.Conn, error) {
			var lastErr error
			for range addrs {
				addr := addrs[int(next.Add(1)-1)%len(addrs)]
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err == nil {
					return conn, nil
				}
				lastErr = err
			}
			return nil, fmt.Errorf("rpc: dial multi: all %d addresses failed: %w", len(addrs), lastErr)
		}
	}
	r := NewRemote(addrs[0], opts)
	if err := r.connect(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewRemote returns a Remote for the node at addr that has not dialed
// yet: it connects on its first call, through opts.Redial or, when that
// is nil, a TCP dial of addr bounded by opts.Timeout, and redials after
// a link failure the same way.
func NewRemote(addr string, opts DialOptions) *Remote {
	opts = opts.withDefaults()
	if opts.Redial == nil {
		timeout := opts.Timeout
		opts.Redial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return &Remote{opts: opts, seed: backoff.Seed(opts.ClientID)}
}

// DialConn wraps an established connection as a client — the injection
// point for alternative transports such as the simulated transputer
// network (internal/simnet).
func DialConn(conn net.Conn) *Remote {
	return DialConnWith(conn, DialOptions{})
}

// DialConnWith is DialConn with options; supply opts.Redial to enable
// reconnection over the alternative transport.
func DialConnWith(conn net.Conn, opts DialOptions) *Remote {
	return newRemote(conn, opts.withDefaults())
}

func newRemote(conn net.Conn, opts DialOptions) *Remote {
	r := &Remote{opts: opts, seed: backoff.Seed(opts.ClientID)}
	r.link = newLink(conn, nil, linkHooks{metrics: opts.Metrics, rec: opts.Trace})
	return r
}

// ClientID reports the identity used for at-most-once dedup.
func (r *Remote) ClientID() string { return r.opts.ClientID }

// Call invokes an entry procedure of a remote object ("X.P(...)") and
// blocks until it terminates, applying the Remote's default retry policy.
func (r *Remote) Call(object, entry string, params ...any) ([]any, error) {
	return r.CallWith(context.Background(), CallOptions{}, object, entry, params...)
}

// CallCtx is Call with a context for cancellation. Cancellation abandons
// the wait; the remote call itself may still complete on the node.
func (r *Remote) CallCtx(ctx context.Context, object, entry string, params ...any) ([]any, error) {
	return r.CallWith(ctx, CallOptions{}, object, entry, params...)
}

// CallWith is CallCtx with per-call options. Transport failures are
// retried per the policy; a retry of a call the node already executed
// replays the original result instead of re-running the entry body.
func (r *Remote) CallWith(ctx context.Context, opts CallOptions, object, entry string, params ...any) ([]any, error) {
	pol := r.opts.Retry
	if opts.Retry != nil {
		pol = *opts.Retry
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	seq := r.seq.Add(1)
	b := pol.schedule(r.seed ^ seq)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if m := r.opts.Metrics; m != nil {
				m.Retries.Inc()
			}
			r.opts.Trace.Record(object, entry, -1, seq, trace.Retried)
			if !b.Wait(ctx.Done()) {
				return nil, lastErr
			}
		}
		l, err := r.healthyLink()
		if err == nil {
			actx, acancel := ctx, context.CancelFunc(func() {})
			if pol.AttemptTimeout > 0 {
				actx, acancel = context.WithTimeout(ctx, pol.AttemptTimeout)
			}
			var res []any
			res, err = l.call(actx, object, entry, params, r.opts.ClientID, seq)
			acancel()
			if err == nil {
				return res, nil
			}
		}
		lastErr = err
		if attempt >= pol.Max || !retryableErr(err) || ctx.Err() != nil {
			return nil, err
		}
		if errors.Is(err, ErrNotLeader) {
			// The peer cannot commit the call — it is a follower or the
			// group is mid-election. The link itself is healthy, so a bare
			// retry would hit the same non-leader forever; bounce the
			// transport so the redial (rotating through the group's
			// addresses under DialMulti) lands the retry elsewhere. The
			// sequence number is deliberately kept: the call may have
			// committed on the group already, and the replicated session
			// table turns the retry into a replay if it did.
			r.bounceLink()
		}
		if errors.Is(err, core.ErrOverload) {
			// The node shed the call: it definitively did not execute, so
			// the retry is a fresh logical call and must carry a fresh
			// sequence number — reusing seq would make the node's
			// at-most-once cache replay the cached rejection forever.
			seq = r.seq.Add(1)
			if m := r.opts.Metrics; m != nil {
				m.Overloads.Inc()
			}
		}
	}
}

// retryableErr reports whether err is worth retrying: a transport failure,
// or an admission-control rejection (core.ErrOverload — the call was shed
// before executing, so a backed-off retry is always safe). Other errors
// returned by the remote object itself are final; in particular
// core.ErrObjectPoisoned is terminal — the object's manager is dead and no
// amount of retrying will revive it. Per-attempt deadline expiry is
// retryable (the caller checks the overall context).
func retryableErr(err error) bool {
	return errors.Is(err, ErrLinkClosed) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, core.ErrOverload) ||
		// A replay-wait timeout means the original execution is still in
		// flight; retrying with the SAME sequence number (unlike overload)
		// re-enters the wait and eventually replays its result.
		errors.Is(err, ErrReplayTimeout) ||
		// Not-the-leader means the call did not commit HERE, but may have
		// committed on the group; same sequence number, next address.
		errors.Is(err, ErrNotLeader)
}

// bounceLink tears the current link down so the next attempt redials. Used
// when the transport is healthy but pointed at the wrong group member.
func (r *Remote) bounceLink() {
	r.mu.Lock()
	l := r.link
	r.mu.Unlock()
	if l != nil {
		l.close()
	}
}

// healthyLink returns the live link, dialing the first one or redialling
// if the current one died. Concurrent callers serialize on the reconnect,
// so one redial serves all.
func (r *Remote) healthyLink() (*link, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errRemoteClosed
	}
	if r.link != nil && !r.link.isClosed() {
		return r.link, nil
	}
	if r.opts.Redial == nil {
		return nil, fmt.Errorf("rpc: no redial configured: %w", r.link.closeReason())
	}
	if err := r.connect(); err != nil {
		return nil, fmt.Errorf("rpc: redial: %v: %w", err, ErrLinkClosed)
	}
	return r.link, nil
}

// connect dials through opts.Redial and makes the new link r's, announcing
// the published channels on it. It runs under r.mu, or before r is shared.
// Only a replaced link counts as a reconnect.
func (r *Remote) connect() error {
	conn, err := r.opts.Redial()
	if err != nil {
		return err
	}
	old := r.link
	r.link = newLink(conn, nil, linkHooks{metrics: r.opts.Metrics, rec: r.opts.Trace})
	for name, ch := range r.pubs {
		_ = r.link.publishChan(name, ch)
	}
	if old != nil {
		go old.close()
		if m := r.opts.Metrics; m != nil {
			m.Reconnects.Inc()
		}
	}
	return nil
}

// List reports the object names hosted by the node, bounded by the
// configured ListTimeout.
func (r *Remote) List() ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ListTimeout)
	defer cancel()
	return r.ListCtx(ctx)
}

// ListCtx is List with a caller-supplied context.
func (r *Remote) ListCtx(ctx context.Context) ([]string, error) {
	l, err := r.healthyLink()
	if err != nil {
		return nil, err
	}
	return l.list(ctx)
}

// PublishChan registers a local channel and returns the ChanRef to pass as
// a call parameter: the executing remote procedure receives a live channel
// whose sends are delivered into ch (message passing to an executing
// remote procedure, paper §1). Publications survive reconnects: each new
// link re-announces them under the same name.
func (r *Remote) PublishChan(name string, ch *channel.Chan) ChanRef {
	if name == "" {
		name = fmt.Sprintf("chan-%d", r.nextRef.Add(1))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pubs == nil {
		r.pubs = make(map[string]*channel.Chan)
	}
	r.pubs[name] = ch
	if r.link == nil {
		return ChanRef{Name: name} // announced by the first connect
	}
	return r.link.publishChan(name, ch)
}

// Close tears the connection down; in-flight calls fail with ErrLinkClosed
// and no further reconnects are attempted.
func (r *Remote) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	l := r.link
	r.mu.Unlock()
	if l != nil {
		l.close()
	}
}

// Object returns a handle binding the object name, for call-site brevity.
func (r *Remote) Object(name string) *RemoteObject {
	return &RemoteObject{remote: r, name: name}
}

// RemoteObject is a bound handle on one remote object.
type RemoteObject struct {
	remote *Remote
	name   string
}

// Name reports the bound object name.
func (ro *RemoteObject) Name() string { return ro.name }

// Call invokes an entry of the bound object.
func (ro *RemoteObject) Call(entry string, params ...any) ([]any, error) {
	return ro.remote.Call(ro.name, entry, params...)
}

// CallCtx is Call with a context.
func (ro *RemoteObject) CallCtx(ctx context.Context, entry string, params ...any) ([]any, error) {
	return ro.remote.CallCtx(ctx, ro.name, entry, params...)
}

// CallWith is Call with a context and per-call options.
func (ro *RemoteObject) CallWith(ctx context.Context, opts CallOptions, entry string, params ...any) ([]any, error) {
	return ro.remote.CallWith(ctx, opts, ro.name, entry, params...)
}
