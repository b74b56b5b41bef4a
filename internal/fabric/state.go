package fabric

import (
	"fmt"

	"repro/internal/wire"
)

// clientRec is one client's dedup tail for one key. Clients issue appends
// synchronously per key, so the only retriable duplicate is the LAST
// sequence number — keeping (seq, the count it observed, and where/when
// it executed) is a complete at-most-once ledger, and it is small enough
// to travel inside handoff state. Epoch and Node make a deduplicated
// retry's acknowledgement describe the ORIGINAL execution: a retry
// answered by the key's new home after a migration must not report the
// new epoch/node for an append that ran at the old one, or client-side
// ledgers stop being valid conformance-oracle input.
type clientRec struct {
	Seq   uint64 // highest executed sequence number
	Count uint64 // key count returned by that execution
	Epoch uint64 // placement epoch that execution ran at
	Node  string // member that ran it
}

// keyState is one key's ledger entry. It lives on exactly one shard of
// one node at a time; the whole struct — dedup history included — moves
// with the key during handoff, which is what keeps at-most-once intact
// across process boundaries (the PR 8 session-table discipline applied
// per key instead of per connection).
type keyState struct {
	// Epoch is the placement epoch: the ring epoch at which the key
	// arrived at its current home (creation or last install). Executions
	// report it so the conformance oracle can verify affinity per epoch
	// and monotone movement.
	Epoch uint64
	// Count is the number of appends executed on the key, ever, across
	// all homes.
	Count uint64
	// Clients is the per-client dedup tail.
	Clients map[string]clientRec
	// Moved marks the tombstone left behind by Extract: the key's state
	// has been handed off and calls are redirected, never served here.
	Moved bool
	// MovedSpec is the ring spec the key moved under; a redirect resolves
	// the key's next home against it (or any newer ring).
	MovedSpec string
}

func newKeyState(epoch uint64) *keyState {
	return &keyState{Epoch: epoch, Clients: make(map[string]clientRec)}
}

// value is the entry as a wire value, a copy the manager may go on
// mutating st under: [epoch, count, {client: [seq, count, epoch, node]},
// moved, movedSpec].
func (st *keyState) value() []any {
	clients := make(map[string]any, len(st.Clients))
	for c, r := range st.Clients {
		clients[c] = []any{r.Seq, r.Count, r.Epoch, r.Node}
	}
	return []any{st.Epoch, st.Count, clients, st.Moved, st.MovedSpec}
}

// stateFrom is value's inverse. What it cannot read is ErrBadState.
func stateFrom(v any) (*keyState, error) {
	f, _ := v.([]any)
	epoch, ok1 := param[uint64](f, 0)
	count, ok2 := param[uint64](f, 1)
	clients, ok3 := param[map[string]any](f, 2)
	moved, ok4 := param[bool](f, 3)
	spec, ok5 := param[string](f, 4)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || len(f) != 5 {
		return nil, fmt.Errorf("%w: key state %v", ErrBadState, v)
	}
	st := &keyState{Epoch: epoch, Count: count, Clients: make(map[string]clientRec, len(clients)), Moved: moved, MovedSpec: spec}
	for c, raw := range clients {
		r, _ := raw.([]any)
		seq, ok1 := param[uint64](r, 0)
		n, ok2 := param[uint64](r, 1)
		e, ok3 := param[uint64](r, 2)
		node, ok4 := param[string](r, 3)
		if !ok1 || !ok2 || !ok3 || !ok4 || len(r) != 4 {
			return nil, fmt.Errorf("%w: key state client %q: %v", ErrBadState, c, raw)
		}
		st.Clients[c] = clientRec{Seq: seq, Count: n, Epoch: e, Node: node}
	}
	return st, nil
}

// encodeState serializes a key's ledger entry for handoff, journaling and
// audits. It cannot fail: the value holds built-in types only.
func encodeState(st *keyState) []byte {
	b, _ := wire.AppendValue(nil, st.value())
	return b
}

// decodeState is encodeState's inverse; it reads bytes a peer sent, so
// anything else is ErrBadState, never a panic.
func decodeState(b []byte) (*keyState, error) {
	v, err := wire.DecodeValue(b)
	if err != nil {
		return nil, fmt.Errorf("%w: key state: %v", ErrBadState, err)
	}
	return stateFrom(v)
}
