package fabric

import (
	"errors"
	"fmt"
	"time"
)

// OverloadError reports that the owning node shed a call under admission
// control (core.ErrOverload propagated over the wire). The call
// definitively did not execute; the caller may retry with the SAME
// sequence number after RetryAfter — the per-key dedup ledger absorbs the
// retry even if a concurrent handoff moved the key meanwhile.
type OverloadError struct {
	Node       string        // member that shed the call
	RetryAfter time.Duration // suggested client backoff
	Err        error         // the wire error (errors.Is -> core.ErrOverload)
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("fabric: node %s overloaded (retry after %v): %v", e.Node, e.RetryAfter, e.Err)
}

func (e *OverloadError) Unwrap() error { return e.Err }

// GapError reports a sequence gap: the owner expected the client's next
// append at Expect but received Seq. Synchronous clients never produce
// gaps, so one means lost state — it is an oracle-grade failure, not a
// retriable condition.
type GapError struct {
	Key    string
	Client string
	Seq    uint64
	Expect uint64
}

func (e *GapError) Error() string {
	return fmt.Sprintf("fabric: sequence gap on key %q: client %q sent seq %d, owner expected %d",
		e.Key, e.Client, e.Seq, e.Expect)
}

// ErrRetriesExhausted reports that the router ran out of retry budget
// while the fabric kept answering retriable statuses (node down, ring
// settling, handoff in flight). The wrapped detail names the last status.
var ErrRetriesExhausted = errors.New("fabric: retries exhausted")

// ErrClosed reports use of a closed Router or Host.
var ErrClosed = errors.New("fabric: closed")

// ErrBadState reports ledger state that does not decode: a key image off
// the wire, or a checkpoint or journal record this build cannot interpret.
// Recovery refuses to start on one rather than guess.
var ErrBadState = errors.New("fabric: malformed ledger state")
