// Package wire is the transport-agnostic binary wire format of the rpc
// substrate: a length-prefixed, CRC-guarded frame codec with a compact
// tag-based value encoding, replacing the gob streams of the early PRs.
//
// Design goals, in order:
//
//   - Cheap: encoding appends to a pooled []byte with no reflection on the
//     supported types; decoding parses out of a single per-frame arena and
//     aliases it where ownership transfer allows (docs/WIRE.md).
//   - Self-delimiting: every frame is `uvarint length | crc32c | payload`,
//     so a reader can size its buffer before parsing and a flipped byte
//     anywhere in the frame is detected with certainty rather than the
//     "overwhelming probability" gob gave us (docs/FAULTS.md §corruption).
//   - Loud on skew: connections open with a fixed magic+version hello;
//     a peer speaking another protocol (or the old gob framing) fails the
//     hello with ErrVersionSkew instead of producing garbage frames.
//
// The package is independent of any particular transport: internal/rpc
// runs it over TCP and simnet, and future replication traffic (ROADMAP
// item 1) can reuse the same frames.
package wire

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// Kind discriminates wire frames.
type Kind uint8

const (
	KindRequest  Kind = iota + 1 // call an entry procedure
	KindResponse                 // results of a request
	KindChanSend                 // message for a published channel
	KindList                     // list hosted objects
	KindListResp                 // response to KindList
)

// Valid reports whether k is a known frame kind.
func (k Kind) Valid() bool { return k >= KindRequest && k <= KindListResp }

// ErrKind carries sentinel-error identity across the wire.
type ErrKind uint8

const (
	ErrNone ErrKind = iota
	ErrGeneric
	ErrKindClosed
	ErrKindUnknownEntry
	ErrKindUnknownObject
	ErrKindBadArity
	ErrKindOverload      // core.ErrOverload: admission control shed the call; retryable
	ErrKindPoisoned      // core.ErrObjectPoisoned: object's manager died; terminal
	ErrKindReplayTimeout // ErrReplayTimeout: duplicate gave up waiting on the primary; retryable
	ErrKindNotLeader     // ErrNotLeader: replica cannot commit the call here; retryable, same seq
)

// Valid reports whether k is a known error kind.
func (k ErrKind) Valid() bool { return k <= ErrKindNotLeader }

// Frame is the single wire message type.
type Frame struct {
	Kind    Kind
	ID      uint64
	Object  string
	Entry   string
	Params  []any
	Results []any
	Err     string
	ErrKind ErrKind
	Chan    string
	Names   []string

	// Client and Seq identify a logical call across retries and
	// reconnects: Client is the caller's stable identity, Seq its
	// per-client call sequence number. Nodes dedup on the pair so retried
	// requests execute at most once (docs/FAULTS.md); a zero Client means
	// the caller wants no dedup.
	Client string
	Seq    uint64
}

// ChanRef names a channel published on the sending side of a call. When a
// ChanRef arrives as a call parameter, the receiving node replaces it with
// a live channel whose sends are forwarded back to the publisher — this is
// how a user communicates with an executing remote procedure (§1). The
// "Channels as Objects" model (PAPERS.md, arXiv 1110.4157) rides on this:
// channel ends are first-class remote values.
type ChanRef struct {
	Name string
}

// ErrMalformed reports a frame that failed structural validation: a bad
// length, a CRC mismatch, a truncated varint, an unknown tag or an
// out-of-protocol discriminant. A peer producing such frames is either
// corrupting bytes or not speaking this protocol, so links tear down on it
// rather than guessing. internal/rpc re-exports it as ErrBadFrame.
var ErrMalformed = errors.New("wire: malformed frame")

// ErrVersionSkew reports a connection whose hello did not carry this
// package's magic and version — an old gob-era peer, a different protocol
// entirely, or a corrupted stream. It is deliberately distinct from
// ErrMalformed so operators can tell "mixed-version cluster" from "bytes
// rotted in flight".
var ErrVersionSkew = errors.New("wire: protocol version mismatch (gob-era or foreign peer?)")

// ErrUnsupported reports a value that the codec cannot encode: a type
// outside the supported set that was never registered. Unlike a decode
// failure it is detected before any byte reaches the wire, so the link
// survives it.
var ErrUnsupported = errors.New("wire: unsupported value type")

// ErrUnknownObject is returned when a call names an object the node does
// not host. Defined here (not in rpc) so the error codec can map it.
var ErrUnknownObject = errors.New("rpc: unknown object")

// ErrReplayTimeout is returned to a duplicate request that waited out the
// node's ReplayWait without seeing the primary execution of its
// (client, seq) complete. Retryable with the SAME sequence number.
var ErrReplayTimeout = errors.New("rpc: timed out waiting for in-flight duplicate")

// ErrNotLeader is returned by a consensus-replicated object
// (internal/replica) when the member that received a call cannot commit it:
// no leader is known, an election is in flight, or a forward to the leader
// failed. The call did not commit here, but it MAY have committed on the
// group (a forwarded call whose response was lost), so retries must keep
// the SAME sequence number — the replicated session table turns the retry
// into a replay if the original landed (docs/REPLICATION.md).
var ErrNotLeader = errors.New("replica: not the leader")

// Validate rejects frames whose discriminants fall outside the protocol.
// The decoder enforces the same bounds while parsing; this remains the
// defense-in-depth hook for frames constructed in-process (tests, fuzz).
func (f *Frame) Validate() error {
	if !f.Kind.Valid() {
		return fmt.Errorf("%w: unknown frame kind %d", ErrMalformed, int(f.Kind))
	}
	if !f.ErrKind.Valid() {
		return fmt.Errorf("%w: unknown error kind %d", ErrMalformed, int(f.ErrKind))
	}
	return nil
}

// EncodeErr maps an error to its wire representation.
func EncodeErr(err error) (string, ErrKind) {
	if err == nil {
		return "", ErrNone
	}
	kind := ErrGeneric
	switch {
	// Poison wraps the manager's panic text, which could itself mention
	// other sentinels; check it first so the terminal classification wins.
	case errors.Is(err, core.ErrObjectPoisoned):
		kind = ErrKindPoisoned
	case errors.Is(err, core.ErrOverload):
		kind = ErrKindOverload
	case errors.Is(err, core.ErrClosed):
		kind = ErrKindClosed
	case errors.Is(err, core.ErrUnknownEntry):
		kind = ErrKindUnknownEntry
	case errors.Is(err, ErrUnknownObject):
		kind = ErrKindUnknownObject
	case errors.Is(err, core.ErrBadArity):
		kind = ErrKindBadArity
	case errors.Is(err, ErrReplayTimeout):
		kind = ErrKindReplayTimeout
	case errors.Is(err, ErrNotLeader):
		kind = ErrKindNotLeader
	}
	return err.Error(), kind
}

// DecodeErr reconstructs an error from its wire representation, preserving
// sentinel identity for errors.Is.
func DecodeErr(msg string, kind ErrKind) error {
	if kind == ErrNone {
		return nil
	}
	switch kind {
	case ErrKindClosed:
		return rewrap(msg, core.ErrClosed)
	case ErrKindUnknownEntry:
		return rewrap(msg, core.ErrUnknownEntry)
	case ErrKindUnknownObject:
		return rewrap(msg, ErrUnknownObject)
	case ErrKindBadArity:
		return rewrap(msg, core.ErrBadArity)
	case ErrKindOverload:
		return rewrap(msg, core.ErrOverload)
	case ErrKindPoisoned:
		return rewrap(msg, core.ErrObjectPoisoned)
	case ErrKindReplayTimeout:
		return rewrap(msg, ErrReplayTimeout)
	case ErrKindNotLeader:
		return rewrap(msg, ErrNotLeader)
	case ErrGeneric:
		return errors.New(msg)
	default:
		// The decoder rejects out-of-range kinds before dispatch, so this
		// is defense in depth for callers that skip validation.
		return fmt.Errorf("%s: %w", msg, ErrMalformed)
	}
}

// rewrap re-attaches a sentinel to a remote error message for errors.Is,
// without repeating the sentinel's own text when the message (produced by
// wrapping the same sentinel on the server) already ends with it.
func rewrap(msg string, sentinel error) error {
	s := sentinel.Error()
	if msg == s {
		return sentinel
	}
	msg = strings.TrimSuffix(msg, ": "+s)
	return fmt.Errorf("%s: %w", msg, sentinel)
}

// Version is the wire protocol version carried in the hello exchange.
// Bump it on any incompatible frame-layout or tag change, and on any change
// to what a published entry takes or answers that an older peer would
// misread (docs/WIRE.md §1). Version 2: fabric key state travels as a wire
// value, not JSON, and Append and Status changed shape.
const Version = 2

// hello is the fixed banner each side writes before its first frame: a
// 4-byte magic that no gob stream starts with, then the version byte.
var hello = [5]byte{'A', 'L', 'P', 'W', Version}

// WriteHello writes the protocol banner. Call it once, before any frame.
func WriteHello(w io.Writer) error {
	_, err := w.Write(hello[:])
	return err
}

// ReadHello consumes and verifies the peer's banner. A mismatched magic
// or version returns ErrVersionSkew — the "old-gob peers fail loudly"
// guarantee: a stream that opens with anything else is torn down before a
// single frame is parsed.
func ReadHello(r io.Reader) error {
	var got [5]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	if got[0] != hello[0] || got[1] != hello[1] || got[2] != hello[2] || got[3] != hello[3] {
		return fmt.Errorf("%w: bad magic %q", ErrVersionSkew, got[:4])
	}
	if got[4] != Version {
		return fmt.Errorf("%w: peer speaks version %d, this build speaks %d", ErrVersionSkew, got[4], Version)
	}
	return nil
}
