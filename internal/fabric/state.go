package fabric

import (
	"encoding/json"
	"fmt"
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
	Seq   uint64 `json:"seq"`   // highest executed sequence number
	Count uint64 `json:"count"` // key count returned by that execution
	Epoch uint64 `json:"epoch"` // placement epoch that execution ran at
	Node  string `json:"node"`  // member that ran it
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
	Epoch uint64 `json:"epoch"`
	// Count is the number of appends executed on the key, ever, across
	// all homes.
	Count uint64 `json:"count"`
	// Clients is the per-client dedup tail.
	Clients map[string]clientRec `json:"clients"`
	// Moved marks the tombstone left behind by Extract: the key's state
	// has been handed off and calls are redirected, never served here.
	Moved bool `json:"moved,omitempty"`
	// MovedSpec is the ring spec the key moved under; a redirect resolves
	// the key's next home against it (or any newer ring).
	MovedSpec string `json:"movedSpec,omitempty"`
}

func newKeyState(epoch uint64) *keyState {
	return &keyState{Epoch: epoch, Clients: make(map[string]clientRec)}
}

// encodeState serializes a key's ledger entry for handoff, journaling and
// audits.
func encodeState(st *keyState) ([]byte, error) {
	b, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode key state: %w", err)
	}
	return b, nil
}

func decodeState(b []byte) (*keyState, error) {
	st := &keyState{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("%w: key state: %v", ErrBadState, err)
	}
	if st.Clients == nil {
		st.Clients = make(map[string]clientRec)
	}
	return st, nil
}
