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
	done    chan struct{} // lazily created for blocked duplicates; guarded by the table mutex
	results []any
	errMsg  string
	errKind errKind
	// lsn is the durable ack record's log position (0 when the node has no
	// durability layer, the entry is not journaled, or the response was
	// preloaded from disk and is already durable). Written by the primary
	// before done closes; every responder syncs through it before sending.
	lsn uint64
}

// SessionTable is a bounded at-most-once table: (client, seq) → response.
// The node keeps one to answer retried RPCs through begin/waitCh/complete:
// the first request for a pair executes; duplicates — retries whose
// original lost its response frame, or whose response is still being
// computed — wait for the entry and replay its result instead of re-running
// the entry body. internal/replica keeps one per member as a replicated
// group's client-session table through Lookup/Record/Dump/Load, mutating it
// ONLY from the deterministic apply loop, so contents and eviction order
// are identical on every replica.
//
// Completed entries are evicted FIFO in completion order once the table
// exceeds its capacity; in-flight entries are never evicted.
type SessionTable struct {
	mu      sync.Mutex
	cap     int
	entries map[dedupKey]*dedupEntry
	order   []dedupKey // completion order, for FIFO eviction
}

// sessionCap is how many completed responses a SessionTable retains. A
// constant, because every member of a replication group must evict alike or
// their tables diverge. Retries arriving after eviction re-execute, so it
// sits well above clients × in-flight window.
const sessionCap = 1024

// NewSessionTable creates a table retaining up to sessionCap completed
// responses.
func NewSessionTable() *SessionTable {
	return &SessionTable{cap: sessionCap, entries: make(map[dedupKey]*dedupEntry)}
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
func (t *SessionTable) begin(key dedupKey) (*dedupEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		return e, false
	}
	e := &dedupEntry{}
	t.entries[key] = e
	return e, true
}

// waitCh returns a channel that is closed once e completes. Must not be
// called with the table mutex held.
func (t *SessionTable) waitCh(e *dedupEntry) <-chan struct{} {
	if e.completed() {
		return closedChan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
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
// the oldest completed ones beyond capacity. t.mu held.
func (t *SessionTable) finishLocked(key dedupKey, e *dedupEntry, results []any, errMsg string, kind errKind) {
	e.results, e.errMsg, e.errKind = results, errMsg, kind
	e.state.Store(1)
	if e.done != nil {
		close(e.done)
	}
	t.entries[key] = e
	t.order = append(t.order, key)
	for len(t.order) > t.cap {
		delete(t.entries, t.order[0])
		t.order = t.order[1:]
	}
}

// complete records the response, releases waiting duplicates, and evicts
// the oldest completed entries beyond capacity.
func (t *SessionTable) complete(key dedupKey, e *dedupEntry, results []any, errMsg string, kind errKind) {
	t.mu.Lock()
	t.finishLocked(key, e, results, errMsg, kind)
	t.mu.Unlock()
}

// preload seeds a completed entry, so a retry of (client, seq) replays it
// instead of re-executing. Recovered entries arrive checkpoint first, then
// log records in LSN order; a later entry for the same key supersedes the
// earlier response in place. Capacity eviction applies as usual.
func (t *SessionTable) preload(client string, seq uint64, results []any, errMsg string, kind errKind) {
	key := dedupKey{client, seq}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		e.results, e.errMsg, e.errKind = results, errMsg, kind
		return
	}
	t.finishLocked(key, &dedupEntry{}, results, errMsg, kind)
}

// Lookup returns the response recorded for (client, seq), with sentinel
// error identity restored for errors.Is. ok is false when the pair was
// never recorded — or was evicted, which is why capacity must exceed
// clients × in-flight window.
func (t *SessionTable) Lookup(client string, seq uint64) (results []any, callErr error, ok bool) {
	t.mu.Lock()
	e, found := t.entries[dedupKey{client, seq}]
	t.mu.Unlock()
	if !found || !e.completed() {
		return nil, nil, false
	}
	return e.results, decodeErr(e.errMsg, e.errKind), true
}

// Record stores the response of a completed call, overwriting any earlier
// record for the same pair (recovery replays records in log order, so the
// last write is the authoritative one).
func (t *SessionTable) Record(client string, seq uint64, results []any, callErr error) {
	msg, kind := encodeErr(callErr)
	t.preload(client, seq, results, msg, kind)
}

// Dump snapshots the completed entries (exactly those order holds) in
// completion order: the node's ack-ledger checkpoint, and the format a
// group leader ships to a rejoining member.
func (t *SessionTable) Dump() []AckEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]AckEntry, 0, len(t.order))
	for _, key := range t.order {
		e := t.entries[key]
		out = append(out, AckEntry{
			Client: key.client, Seq: key.seq,
			Results: e.results, ErrMsg: e.errMsg, ErrKind: int32(e.errKind),
		})
	}
	return out
}

// Load folds dumped entries back in, in order; later entries for a pair
// supersede earlier ones.
func (t *SessionTable) Load(entries []AckEntry) {
	for _, a := range entries {
		t.preload(a.Client, a.Seq, a.Results, a.ErrMsg, errKind(a.ErrKind))
	}
}

// Len reports how many entries (in-flight + completed) are tracked.
func (t *SessionTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
