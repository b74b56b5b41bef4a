package rpc

import "context"

// sessionCallable is the optional serve surface of a published object that
// owns the caller's at-most-once itself; the node keeps no dedup entry for
// its calls. Requests without a client identity fall back to the plain
// CallCtx path. Three objects implement it:
//   - replica.Replica: the (client, seq) pair travels inside the replicated
//     log entry, so every member of the group — including a leader elected
//     after a failover — replays a retry of an already-committed call from
//     its SessionTable instead of re-executing the entry body;
//   - the replica's consensus endpoint (replica.ControlName): a peer
//     message is idempotent by term and index;
//   - fabric.Host: the ledger's per-key client tails absorb duplicate
//     appends, the install fence duplicate installs, and every other entry
//     is a max-merge or a read.
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
