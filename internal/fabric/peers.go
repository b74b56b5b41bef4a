package fabric

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
)

// peers caches one rpc link per fabric member. Host (forwards, installs,
// gossip) and Router (client calls) share it. Safe for concurrent use.
type peers struct {
	identity string        // base of every link's at-most-once identity
	timeout  time.Duration // bound on each TCP connect

	mu     sync.Mutex
	conns  map[string]*peerConn
	closed bool
}

type peerConn struct {
	addr string
	rem  *rpc.Remote
}

func newPeers(identity string, timeout time.Duration) *peers {
	return &peers{identity: identity, timeout: timeout, conns: make(map[string]*peerConn)}
}

// linkIdentity salts base with a fresh nonce, producing the transport
// at-most-once identity for ONE dialed connection. Each rpc.Remote
// numbers its calls from 1 and the nodes' replay cache keys on
// (identity, call number), so two connections sharing an identity — a
// reconnect after drop, or two processes running the same client —
// would replay the first connection's cached responses to the second's
// unrelated calls (an aliased Install "ok" would let pushInstall forget
// state that never landed). Exactly-once for appends is the ledger's job,
// keyed on the stable ClientID that travels as a call parameter; the link
// identity only has to be unique per connection.
func linkIdentity(base string) (string, error) {
	nonce := make([]byte, 6)
	if _, err := rand.Read(nonce); err != nil {
		return "", fmt.Errorf("fabric: link nonce: %w", err)
	}
	return base + "#" + hex.EncodeToString(nonce), nil
}

// conn returns the cached link to member at addr, dialing outside the lock
// when there is none.
func (p *peers) conn(member, addr string) (*rpc.Remote, error) {
	if addr == "" {
		return nil, fmt.Errorf("fabric: no address for member %q", member)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if c := p.conns[member]; c != nil && c.addr == addr {
		p.mu.Unlock()
		return c.rem, nil
	}
	p.mu.Unlock()
	linkID, err := linkIdentity(p.identity)
	if err != nil {
		return nil, err
	}
	rem, err := rpc.DialWith(addr, rpc.DialOptions{Timeout: p.timeout, ClientID: linkID})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		rem.Close()
		return nil, ErrClosed
	}
	if c := p.conns[member]; c != nil && c.addr == addr {
		// Lost a dial race. Keep the cached link — it may already carry
		// in-flight calls (closing it would interrupt them) — and discard
		// ours.
		p.mu.Unlock()
		rem.Close()
		return c.rem, nil
	}
	if old := p.conns[member]; old != nil {
		// The member moved: the old-address link is stale.
		old.rem.Close()
	}
	p.conns[member] = &peerConn{addr: addr, rem: rem}
	p.mu.Unlock()
	return rem, nil
}

// drop closes and forgets member's link after a link-level failure.
func (p *peers) drop(member string) {
	p.mu.Lock()
	c := p.conns[member]
	delete(p.conns, member)
	p.mu.Unlock()
	if c != nil {
		c.rem.Close()
	}
}

func (p *peers) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// close closes every link; later conn calls fail with ErrClosed.
func (p *peers) close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range conns {
		c.rem.Close()
	}
}
