// Package rpc is the distributed substrate for ALPS objects (paper §1, §3):
// calls to the entry procedures of a remote object are remote procedure
// calls, and a caller can further communicate with an executing remote
// procedure by message passing on point-to-point channels passed as call
// parameters.
//
// A Node hosts objects (and channels) behind a TCP listener; a Remote is a
// client connection. Frames use internal/wire's length-prefixed binary
// codec over a persistent, pipelined connection; parameter and result
// values must be wire-encodable (basic types, []byte, []any,
// map[string]any and ChanRef work out of the box, user-defined struct
// types are registered with Register).
package rpc

import (
	"errors"

	"repro/internal/wire"
)

// The rpc layer's frame vocabulary is the wire package's, re-exported
// under the historical local names so the serving and dispatch code reads
// unchanged.
type (
	frameKind = wire.Kind
	errKind   = wire.ErrKind
	frame     = wire.Frame
)

const (
	frameRequest  = wire.KindRequest
	frameResponse = wire.KindResponse
	frameChanSend = wire.KindChanSend
	frameList     = wire.KindList
	frameListResp = wire.KindListResp

	errNone          = wire.ErrNone
	errGeneric       = wire.ErrGeneric
	errClosed        = wire.ErrKindClosed
	errUnknownEntry  = wire.ErrKindUnknownEntry
	errUnknownObject = wire.ErrKindUnknownObject
	errBadArity      = wire.ErrKindBadArity
	errOverload      = wire.ErrKindOverload
	errPoisoned      = wire.ErrKindPoisoned
	errReplayTimeout = wire.ErrKindReplayTimeout
	errNotLeader     = wire.ErrKindNotLeader
)

// ChanRef names a channel published on the sending side of a call. When a
// ChanRef arrives as a call parameter, the receiving node replaces it with
// a live channel whose sends are forwarded back to the publisher — this is
// how a user communicates with an executing remote procedure (§1).
type ChanRef = wire.ChanRef

// ErrUnknownObject is returned when a call names an object the node does
// not host.
var ErrUnknownObject = wire.ErrUnknownObject

// ErrBadFrame reports a frame that failed structural validation: a bad
// length prefix, a CRC mismatch, a truncated varint, or an unknown frame
// kind, error kind or value tag. A peer sending such frames is corrupting
// bytes or not speaking this protocol at all, so the link is torn down
// rather than guessing.
var ErrBadFrame = wire.ErrMalformed

// ErrVersionSkew reports a connection whose protocol hello did not match
// this build — an old gob-era peer or a foreign protocol. The link fails
// before any frame is exchanged.
var ErrVersionSkew = wire.ErrVersionSkew

// ErrLinkClosed is returned for calls over a closed or failed connection.
var ErrLinkClosed = errors.New("rpc: connection closed")

// ErrReplayTimeout is returned to a duplicate request that waited
// 30s (the node's replay bound) for the primary execution of its
// (client, seq) without seeing it complete. The original execution continues; its result
// stays in the dedup cache, so a later retry of the same sequence number
// replays it. Retryable with the SAME sequence number.
var ErrReplayTimeout = wire.ErrReplayTimeout

// ErrNotLeader is returned by a consensus-replicated object when the
// member that received the call cannot commit it: it is a follower, or an
// election is in flight. The call may nevertheless have committed on the
// group (a response lost in a failover), so retries MUST keep the same
// sequence number — the replicated session table turns the retry into a
// replay if the original landed. Remotes built with DialMulti rotate to
// the next group address before retrying (docs/REPLICATION.md).
var ErrNotLeader = wire.ErrNotLeader

// Register makes a user-defined type transmissible as a parameter, result
// or message value. It must be called identically on both ends before the
// type is used — links capture the registered set when they are created.
//
// Registration goes to an explicit type table (wire.DefaultTable), not a
// process-global gob registry: it is concurrency-safe, idempotent, and
// duplicate-name panics are impossible because names are package-path
// qualified.
func Register(value any) {
	wire.Register(value)
}

// encodeErr maps an error to its wire representation.
func encodeErr(err error) (string, errKind) { return wire.EncodeErr(err) }

// decodeErr reconstructs an error from its wire representation, preserving
// sentinel identity for errors.Is.
func decodeErr(msg string, kind errKind) error { return wire.DecodeErr(msg, kind) }
