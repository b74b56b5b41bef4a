package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
)

// RouterOptions configures a client-side Router.
type RouterOptions struct {
	// ClientID is the stable identity under which appends are issued (it
	// is the dedup key on the ledger, so it must survive reconnects and
	// even process restarts of the client when exactly-once matters).
	ClientID string
	// DialTimeout bounds each TCP connect (default 2s).
	DialTimeout time.Duration
}

// An Append or Audit absorbs up to routerRetries retriable responses (node
// down, ring settling, handoff in flight) before giving up with
// ErrRetriesExhausted; the context deadline cuts it shorter. Its backoff
// step doubles from routerBase to routerCap. A wait is at least half its
// step, so a 64-attempt Append waits at least 5 + 10 + … + 160 ms + 58 ×
// 320 ms = 18.875 s before ErrRetriesExhausted; the e2e chaos outages are
// sized against that. The jitter is seeded per client, key and seq:
// Routers do not retry in lockstep after a reshard.
const (
	routerRetries = 64
	routerBase    = 10 * time.Millisecond
	routerCap     = 640 * time.Millisecond
)

// Exec is one acknowledged append: who executed it, at which placement
// epoch, and the key's running count after it. Feed these (in
// acknowledgement order per client) to conformance.CheckKeyOrder to
// verify the fabric's ordering promises from the outside.
type Exec struct {
	Key    string
	Client string
	Seq    uint64
	Node   string // member that executed the call
	Epoch  uint64 // key's placement epoch at execution
	Count  uint64 // key count after this append
	Info   string // "" for a fresh execution, "dup" when answered from the ledger
}

// Audit is one key's server-side ledger entry, fetched from its owner.
type Audit struct {
	Key     string
	Node    string
	Found   bool
	Epoch   uint64
	Count   uint64
	Clients map[string]uint64 // client -> highest executed seq
}

// Router routes keyed appends to the owning fabric node, adopting newer
// ring specs from wrong-owner hints, propagating overload as typed
// errors and absorbing the transient statuses a live reshard produces.
// Safe for concurrent use.
type Router struct {
	opts RouterOptions
	// client is opts.ClientID boxed once: every Append passes it as a call
	// parameter, and boxing it there cost an allocation per call.
	client any
	// retries is routerRetries; tests lower it.
	retries int

	peers *peers

	mu   sync.Mutex
	ring *Ring
}

// NewRouter builds a router from an initial ring spec.
func NewRouter(spec string, opts RouterOptions) (*Router, error) {
	ring, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if opts.ClientID == "" {
		return nil, errors.New("fabric: RouterOptions.ClientID is required")
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	return &Router{opts: opts, client: opts.ClientID, retries: routerRetries, ring: ring, peers: newPeers(opts.DialTimeout)}, nil
}

// Ring reports the router's current ring spec.
func (r *Router) Ring() string { return r.ringSnapshot().Spec() }

func (r *Router) ringSnapshot() *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// adopt installs a newer ring spec and reports whether it did.
func (r *Router) adopt(spec string) bool {
	ring, err := ParseSpec(spec)
	if err != nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ring.Epoch() <= r.ring.Epoch() {
		return false
	}
	r.ring = ring
	return true
}

// Append executes one keyed append with at-most-once semantics: it may
// retry internally across node failures, wrong-owner bounces, overloads
// and live handoffs, because the (ClientID, key, seq) identity makes
// every retry idempotent. Sequence numbers must be issued densely
// (0,1,2,...) per (ClientID, key), one in flight at a time.
//
// Errors: *OverloadError after the retry budget drowns in shed responses
// (callers see the owning node and a backoff hint), *GapError for a
// sequence gap (oracle-grade failure — do not retry), ErrRetriesExhausted
// when the fabric kept answering transient statuses, or the context's
// error.
func (r *Router) Append(ctx context.Context, key string, seq uint64, payload []byte) (Exec, error) {
	var lastStatus string
	var lastErr error
	b := backoff.Schedule{Base: routerBase, Cap: routerCap, Seed: backoff.Seed(r.opts.ClientID) ^ backoff.Seed(key) ^ seq}
	for attempt := 0; attempt < r.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return Exec{}, err
		}
		ring := r.ringSnapshot()
		owner := ring.Owner(key)
		rem, err := r.peers.conn(owner, ring.Addr(owner))
		if err != nil {
			return Exec{}, err // ErrClosed: every ring member has an address
		}
		res, err := rem.CallCtx(ctx, "fabric", "Append", key, r.client, seq, payload)
		if err != nil {
			if errors.Is(err, core.ErrOverload) {
				return Exec{}, &OverloadError{Node: owner, RetryAfter: b.Step(), Err: err}
			}
			if ctx.Err() != nil {
				return Exec{}, ctx.Err()
			}
			// Link-level failure: the call may or may not have executed;
			// retrying the same seq is safe against the dedup ledger, and
			// the Remote redials a dead link on the retry.
			lastStatus, lastErr = "link", err
			if !b.Wait(ctx.Done()) {
				return Exec{}, ctx.Err()
			}
			continue
		}
		if len(res) != 5 {
			return Exec{}, fmt.Errorf("fabric: malformed append response (%d values)", len(res))
		}
		status, _ := res[0].(string)
		member, _ := res[1].(string)
		epoch, _ := res[2].(uint64)
		count, _ := res[3].(uint64)
		info, _ := res[4].(string)
		switch status {
		case statusOK:
			return Exec{Key: key, Client: r.opts.ClientID, Seq: seq, Node: member, Epoch: epoch, Count: count, Info: info}, nil
		case statusGap:
			return Exec{}, &GapError{Key: key, Client: r.opts.ClientID, Seq: seq, Expect: count}
		case statusWrongOwner, statusRetry:
			lastStatus, lastErr = status, nil
			// A wrong-owner hint that advances the ring is the fast
			// re-resolve: go again at once. One that does not (the owner
			// lags the ring this router already holds) backs off like a
			// retry, until the owner learns the ring.
			if status == statusWrongOwner && r.adopt(info) {
				continue
			}
			if !b.Wait(ctx.Done()) {
				return Exec{}, ctx.Err()
			}
		default:
			return Exec{}, fmt.Errorf("fabric: unexpected append status %q", status)
		}
	}
	if lastErr != nil {
		return Exec{}, fmt.Errorf("%w after %d attempts (last: %s): %v", ErrRetriesExhausted, r.retries, lastStatus, lastErr)
	}
	return Exec{}, fmt.Errorf("%w after %d attempts (last status %q)", ErrRetriesExhausted, r.retries, lastStatus)
}

// Audit fetches one key's server-side ledger entry from its current
// owner, following ring updates like Append does.
func (r *Router) Audit(ctx context.Context, key string) (Audit, error) {
	b := backoff.Schedule{Base: routerBase, Cap: routerCap, Seed: backoff.Seed(r.opts.ClientID) ^ backoff.Seed(key)}
	var last error
	for attempt := 0; attempt < r.retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return Audit{}, err
		}
		ring := r.ringSnapshot()
		owner := ring.Owner(key)
		rem, err := r.peers.conn(owner, ring.Addr(owner))
		if err == nil {
			var res []any
			res, err = rem.CallCtx(ctx, "fabric", "Audit", key)
			if err == nil && len(res) == 3 {
				status, _ := res[0].(string)
				spec, _ := res[2].(string)
				r.adopt(spec)
				if owner != r.ringSnapshot().Owner(key) {
					continue // ring moved on; re-ask the real owner
				}
				switch status {
				case statusOK:
					b, _ := res[1].([]byte)
					st, derr := decodeState(b)
					if derr != nil {
						return Audit{}, derr
					}
					if st.Moved {
						break // handoff still in flight; back off and re-ask
					}
					a := Audit{Key: key, Node: owner, Found: true, Epoch: st.Epoch, Count: st.Count,
						Clients: make(map[string]uint64, len(st.Clients))}
					for c, cr := range st.Clients {
						a.Clients[c] = cr.Seq
					}
					return a, nil
				case statusNone:
					return Audit{Key: key, Node: owner}, nil
				}
			}
		}
		if err != nil {
			last = err
		}
		if !b.Wait(ctx.Done()) {
			return Audit{}, ctx.Err()
		}
	}
	return Audit{}, fmt.Errorf("%w: audit %q: %v", ErrRetriesExhausted, key, last)
}

// Reshard broadcasts a new ring spec to every member of both the current
// and the new ring, returning how many acknowledged. One acknowledgement
// is enough for eventual convergence (specs gossip), but the count lets
// operators see partition effects.
func (r *Router) Reshard(ctx context.Context, spec string) (int, error) {
	ring, err := ParseSpec(spec)
	if err != nil {
		return 0, err
	}
	old := r.ringSnapshot()
	if ring.Epoch() <= old.Epoch() {
		return 0, fmt.Errorf("fabric: reshard spec epoch %d is not newer than current %d", ring.Epoch(), old.Epoch())
	}
	targets := make(map[string]string)
	for _, id := range old.Members() {
		targets[id] = old.Addr(id)
	}
	for _, id := range ring.Members() {
		targets[id] = ring.Addr(id)
	}
	acked := 0
	for id, addr := range targets {
		rem, err := r.peers.conn(id, addr)
		if err != nil {
			continue
		}
		if _, err := rem.CallCtx(ctx, "fabric", "Reshard", spec); err != nil {
			continue
		}
		acked++
	}
	if acked == 0 {
		return 0, fmt.Errorf("fabric: reshard to epoch %d reached no member", ring.Epoch())
	}
	r.adopt(spec)
	return acked, nil
}

// Status asks one member for its view: ring spec, settled level and
// settled vector. The router adopts any newer spec it learns.
func (r *Router) Status(ctx context.Context, member string) (spec string, completed uint64, settled map[string]uint64, err error) {
	ring := r.ringSnapshot()
	rem, err := r.peers.conn(member, ring.Addr(member))
	if err != nil {
		return "", 0, nil, err
	}
	res, err := rem.CallCtx(ctx, "fabric", "Status", ring.Spec())
	if err != nil {
		return "", 0, nil, err
	}
	if len(res) != 4 {
		return "", 0, nil, fmt.Errorf("fabric: malformed status response (%d values)", len(res))
	}
	spec, _ = res[1].(string)
	completed, _ = res[2].(uint64)
	settled = settledVector(res[3])
	r.adopt(spec)
	return spec, completed, settled, nil
}

// Close closes every member connection.
func (r *Router) Close() { r.peers.close() }
