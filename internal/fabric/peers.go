package fabric

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rpc"
)

// peers caches one rpc.Remote per fabric member. Host (installs,
// gossip) and Router (client calls) share it. The Remote dials on its
// first call and redials after a link failure, so nothing here dials.
// Safe for concurrent use.
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

// conn returns member's Remote for addr, replacing the one cached for an
// older address.
func (p *peers) conn(member, addr string) (*rpc.Remote, error) {
	if addr == "" {
		return nil, fmt.Errorf("fabric: no address for member %q", member)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	old := p.conns[member]
	if old != nil && old.addr == addr {
		p.mu.Unlock()
		return old.rem, nil
	}
	rem := rpc.NewRemote(addr, rpc.DialOptions{Timeout: p.timeout})
	p.conns[member] = &peerConn{addr: addr, rem: rem}
	p.mu.Unlock()
	if old != nil {
		// The member moved: the old-address link is stale. Close waits
		// out a redial in flight on it, so it runs outside the lock.
		old.rem.Close()
	}
	return rem, nil
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
