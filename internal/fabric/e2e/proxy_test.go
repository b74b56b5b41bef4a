package e2e

import (
	"io"
	"net"
	"sync"
	"time"
)

// proxy is a partitionable TCP forwarder. The cluster advertises proxy
// addresses in -fabric-members, so every byte between peers — and
// between clients and nodes — crosses one of these. The proxy holds its
// listener from reservation to Close, so its advertised port is never
// free for another process to take. Stop() simulates a network partition
// of the node behind it: every live connection is severed and every new
// one is closed on accept; Start() heals it.
type proxy struct {
	lis net.Listener // the advertised address

	mu     sync.Mutex
	target string // the node's real listen address; "" while it is down
	cut    bool   // partitioned
	gen    uint64 // bumped by every Stop, so a forward that raced one severs
	conns  map[net.Conn]struct{}
}

// newProxy serves on lis; it forwards once setTarget names the node's
// address.
func newProxy(lis net.Listener) *proxy {
	p := &proxy{lis: lis, conns: make(map[net.Conn]struct{})}
	go p.accept()
	return p
}

func (p *proxy) addr() string { return p.lis.Addr().String() }

// setTarget points the proxy at the node's current real address.
func (p *proxy) setTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// Start begins (or resumes) forwarding. Idempotent.
func (p *proxy) Start() {
	p.mu.Lock()
	p.cut = false
	p.mu.Unlock()
}

// Stop severs the node: no new connections, and every existing one dies
// mid-stream — exactly what a partition looks like to both ends.
func (p *proxy) Stop() {
	p.mu.Lock()
	p.cut = true
	p.gen++
	conns := p.conns
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
	for c := range conns {
		_ = c.Close()
	}
}

// Close partitions the node for good and releases the port.
func (p *proxy) Close() {
	_ = p.lis.Close()
	p.Stop()
}

func (p *proxy) accept() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		go p.forward(c)
	}
}

func (p *proxy) forward(c net.Conn) {
	p.mu.Lock()
	target, cut, gen := p.target, p.cut, p.gen
	p.mu.Unlock()
	if cut || target == "" {
		_ = c.Close()
		return
	}
	up, err := net.DialTimeout("tcp", target, 2*time.Second)
	if err != nil {
		_ = c.Close()
		return
	}
	p.mu.Lock()
	if p.gen != gen {
		// A Stop() raced this dial; sever instead of leaking a healed
		// path through a partition.
		p.mu.Unlock()
		_ = c.Close()
		_ = up.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.conns[up] = struct{}{}
	p.mu.Unlock()
	done := func() {
		_ = c.Close()
		_ = up.Close()
		p.mu.Lock()
		delete(p.conns, c)
		delete(p.conns, up)
		p.mu.Unlock()
	}
	go func() {
		_, _ = io.Copy(up, c)
		done()
	}()
	_, _ = io.Copy(c, up)
	done()
}
