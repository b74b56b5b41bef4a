package fabric

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
)

// peers caches one rpc link per fabric member. Host (installs,
// gossip) and Router (client calls) share it. Safe for concurrent use.
type peers struct {
	timeout time.Duration // bound on each TCP connect

	mu     sync.Mutex
	conns  map[string]*peerConn
	closed bool
}

type peerConn struct {
	addr string
	rem  *rpc.Remote
}

func newPeers(timeout time.Duration) *peers {
	return &peers{timeout: timeout, conns: make(map[string]*peerConn)}
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
	rem, err := rpc.DialWith(addr, rpc.DialOptions{Timeout: p.timeout})
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
