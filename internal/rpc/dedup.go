package rpc

import (
	"sync"
	"sync/atomic"
)

// dedupKey identifies a logical call across retries and reconnects.
type dedupKey struct {
	client string
	seq    uint64
}

// dedupEntry tracks one logical call: in flight until complete, then
// holding the response for replay to duplicate requests. The completion
// signal is an atomic flag, not a channel: duplicates that need to block
// are rare (a retry racing its primary), so the channel is created lazily
// by waitCh and the common path pays one atomic store instead of a
// channel allocation and close per request.
type dedupEntry struct {
	state   atomic.Uint32 // 0 = in flight, 1 = complete
	done    chan struct{} // lazily created for blocked duplicates; guarded by the cache mutex
	results []any
	errMsg  string
	errKind errKind
	// lsn is the durable ack record's log position (0 when the node has no
	// durability layer, the entry is not journaled, or the response was
	// preloaded from disk and is already durable). Written by the primary
	// before done closes; every responder syncs through it before sending.
	lsn uint64
}

// dedupCache is a node's bounded at-most-once table. The first request
// for a (client, seq) pair executes; duplicates — retries whose original
// lost its response frame, or whose response is still being computed —
// wait for the entry and replay its result instead of re-running the
// entry body. Completed entries are evicted FIFO once the cache exceeds
// its capacity; in-flight entries are never evicted.
type dedupCache struct {
	mu      sync.Mutex
	cap     int
	entries map[dedupKey]*dedupEntry
	order   []dedupKey // completion order, for FIFO eviction
}

func newDedupCache(capacity int) *dedupCache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &dedupCache{cap: capacity, entries: make(map[dedupKey]*dedupEntry)}
}

// completed reports whether the entry's response is recorded. The
// results fields are safe to read once this returns true.
func (e *dedupEntry) completed() bool { return e.state.Load() == 1 }

// closedChan is the ready-made wait channel for already-completed
// entries.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// begin returns the entry for key and whether the caller is the primary
// executor (first arrival) rather than a duplicate.
func (d *dedupCache) begin(key dedupKey) (*dedupEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		return e, false
	}
	e := &dedupEntry{}
	d.entries[key] = e
	return e, true
}

// waitCh returns a channel that is closed once e completes. Must not be
// called with the cache mutex held.
func (d *dedupCache) waitCh(e *dedupEntry) <-chan struct{} {
	if e.completed() {
		return closedChan
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Re-check under the lock: complete flips state inside this same
	// critical section, so either we see it completed here or complete
	// will see (and close) the channel we create.
	if e.completed() {
		return closedChan
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	return e.done
}

// finishLocked is the table's one completion path: record the response on
// e, flip it complete (which publishes the response to lock-free readers of
// completed()), release blocked duplicates, then keep the entry, evicting
// the oldest completed ones beyond capacity. d.mu held.
func (d *dedupCache) finishLocked(key dedupKey, e *dedupEntry, results []any, errMsg string, kind errKind) {
	e.results, e.errMsg, e.errKind = results, errMsg, kind
	e.state.Store(1)
	if e.done != nil {
		close(e.done)
	}
	d.entries[key] = e
	d.order = append(d.order, key)
	for len(d.order) > d.cap {
		delete(d.entries, d.order[0])
		d.order = d.order[1:]
	}
}

// complete records the response, releases waiting duplicates, and evicts
// the oldest completed entries beyond capacity.
func (d *dedupCache) complete(key dedupKey, e *dedupEntry, results []any, errMsg string, kind errKind) {
	d.mu.Lock()
	d.finishLocked(key, e, results, errMsg, kind)
	d.mu.Unlock()
}

// preload seeds a completed entry recovered from the durability layer, so
// a (client, seq) retried across a node restart replays its on-disk
// response instead of re-executing. Recovered entries arrive checkpoint
// first, then log acks in LSN order; a later entry for the same key
// supersedes the earlier response in place. Capacity eviction applies as
// usual.
func (d *dedupCache) preload(client string, seq uint64, results []any, errMsg string, kind errKind) {
	key := dedupKey{client, seq}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		e.results, e.errMsg, e.errKind = results, errMsg, kind
		return
	}
	d.finishLocked(key, &dedupEntry{}, results, errMsg, kind)
}

// len reports how many entries (in-flight + completed) are tracked.
func (d *dedupCache) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}
