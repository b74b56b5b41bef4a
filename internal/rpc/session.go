package rpc

import "context"

// sessionCallable is the optional serve surface of a published object that
// owns the caller's at-most-once identity itself. The consensus-replicated
// object (internal/replica) implements it: the (client, seq) pair travels
// inside the replicated log entry, so every member of the group — including
// a leader elected after a failover — recognizes a retry of an
// already-committed call and replays its recorded response instead of
// re-executing the entry body. The node keeps no dedup entry for such calls.
// Requests without a client identity fall back to the plain CallCtx path.
type sessionCallable interface {
	CallSession(ctx context.Context, client string, seq uint64, entry string, params []any) ([]any, error)
}

// AckEntry is one completed (client, seq) response: the unit of the node's
// ack ledger (acks.go) and of a replication group's session snapshots.
type AckEntry struct {
	Client  string
	Seq     uint64
	Results []any
	ErrMsg  string
	ErrKind int32
}

// SessionTable is the node's at-most-once table, exported for the
// replication layer: the same bounded (client, seq) → response cache a
// node uses to answer retried RPCs doubles as a replicated group's
// client-session table. internal/replica keeps one per member, mutates it
// ONLY from the deterministic apply loop (so contents and eviction order
// are identical on every replica), snapshots it with Dump, and rebuilds a
// rejoining member's copy with Load.
type SessionTable struct {
	d *dedupCache
}

// NewSessionTable creates a table retaining up to capacity completed
// responses (<= 0 selects the dedup default of 1024). Eviction is FIFO in
// completion order; capacity must be identical across the members of a
// replication group or their tables diverge.
func NewSessionTable(capacity int) *SessionTable {
	return &SessionTable{d: newDedupCache(capacity)}
}

// Lookup returns the response recorded for (client, seq), with sentinel
// error identity restored for errors.Is. ok is false when the pair was
// never recorded — or was evicted, which is why capacity must exceed
// clients × in-flight window.
func (t *SessionTable) Lookup(client string, seq uint64) (results []any, callErr error, ok bool) {
	t.d.mu.Lock()
	e, found := t.d.entries[dedupKey{client, seq}]
	t.d.mu.Unlock()
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
	t.d.preload(client, seq, results, msg, kind)
}

// Dump snapshots the completed entries in completion order, the format a
// group leader ships to a rejoining member.
func (t *SessionTable) Dump() []AckEntry { return t.d.dump() }

// Load folds dumped entries back in, in order; later entries for a pair
// supersede earlier ones.
func (t *SessionTable) Load(entries []AckEntry) { t.d.load(entries) }

// Len reports how many responses are retained.
func (t *SessionTable) Len() int { return t.d.len() }

// dump snapshots the cache's completed entries (exactly those order holds)
// in completion order.
func (d *dedupCache) dump() []AckEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]AckEntry, 0, len(d.order))
	for _, key := range d.order {
		e := d.entries[key]
		out = append(out, AckEntry{
			Client: key.client, Seq: key.seq,
			Results: e.results, ErrMsg: e.errMsg, ErrKind: int32(e.errKind),
		})
	}
	return out
}

// load preloads dumped entries, in order.
func (d *dedupCache) load(entries []AckEntry) {
	for _, a := range entries {
		d.preload(a.Client, a.Seq, a.Results, a.ErrMsg, errKind(a.ErrKind))
	}
}
