package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/wire"
)

// Kind discriminates log records.
type Kind int

// KindOutcome is the one kind written: a participant record, journaled by
// the object runtime in delivery order (entry, parameters) or by a
// participant with a vocabulary of its own through ObjectJournal.Append.
// Replaying them against a fresh participant rebuilds its state.
const KindOutcome Kind = 1

// AckLedger is the participant name the node's at-most-once table journals
// and checkpoints under (internal/rpc), so a retried (client, seq) is
// answered from disk after a restart, never re-executed.
const AckLedger = "!acks"

// Record is one durable log entry: Entry names the record's type in the
// Object participant's vocabulary, and Params are what its Replay hook gets.
// Params values must be wire-encodable: the types an rpc call carries, with
// user structs registered through rpc.Register.
type Record struct {
	Kind   Kind
	Object string
	Entry  string
	Params []any

	// LSN is the record's log sequence number, assigned by Log.Append and
	// restored by recovery. It is not part of the encoded payload.
	LSN uint64
}

// ErrCorrupt reports a record that failed structural validation: a bad
// CRC, an implausible length, or an undecodable payload. Recovery treats a
// corrupt record at the tail of the final segment as a torn write (truncate
// and continue) and anywhere else as data loss (fail).
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrRetiredLayout reports a directory written before the on-disk format
// version (formatMarker): its records and snapshots are gob, which this build
// does not read. It is NOT corruption: Open fails and changes nothing in the
// directory, because its snapshot may be the only copy of what it covers.
var ErrRetiredLayout = errors.New("wal: data dir predates the on-disk format version and this build cannot read it; " +
	"a replicated member: remove this member's data dir and restart it — it rejoins its group by snapshot catch-up; " +
	"a standalone member: its data is not readable by this build — keep the dir for the build that wrote it")

// recHeaderLen is the frame prologue: uint32 payload length, uint32 CRC.
const recHeaderLen = 8

// maxRecordLen bounds a single record's payload; a length beyond it is
// corruption, not a huge record (prevents a flipped length byte from
// driving a multi-gigabyte allocation during recovery).
const maxRecordLen = 64 << 20

// appendFrame appends v (a record or a snapshot, as a wire value) to dst as
// one frame:
//
//	uint32 length | uint32 crc32c(payload) | payload (wire value)
func appendFrame(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	out, err := wire.AppendValue(append(dst, make([]byte, recHeaderLen)...), v)
	if err != nil {
		return dst, fmt.Errorf("wal: encode: %w", err)
	}
	payload := out[start+recHeaderLen:]
	binary.LittleEndian.PutUint32(out[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[start+4:], crc32.Checksum(payload, crcTable))
	return out, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// decodeFrame checks one frame at the start of data and returns its payload
// and the bytes consumed. io.ErrUnexpectedEOF means the frame is cut short
// (a torn tail); ErrCorrupt means the frame is structurally wrong.
func decodeFrame(data []byte) ([]byte, int, error) {
	if len(data) < recHeaderLen {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n == 0 || n > maxRecordLen {
		return nil, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	if len(data) < recHeaderLen+int(n) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload := data[recHeaderLen : recHeaderLen+int(n)]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(data[4:8]); got != want {
		return nil, 0, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return payload, recHeaderLen + int(n), nil
}

// value is the record's payload: [kind, object, entry, params].
func (r *Record) value() []any { return []any{int(r.Kind), r.Object, r.Entry, r.Params} }

// decodeRecord decodes one framed record from data, returning the record
// and the bytes consumed, with decodeFrame's error classes. An intact frame
// whose payload is not a record is ErrCorrupt.
func decodeRecord(data []byte) (*Record, int, error) {
	payload, n, err := decodeFrame(data)
	if err != nil {
		return nil, 0, err
	}
	v, err := wire.DecodeValue(payload)
	f, _ := v.([]any)
	if err != nil || len(f) != 4 {
		return nil, 0, fmt.Errorf("%w: record payload: %v", ErrCorrupt, err)
	}
	kind, ok1 := f[0].(int)
	object, ok2 := f[1].(string)
	entry, ok3 := f[2].(string)
	params, ok4 := f[3].([]any)
	if !ok1 || !ok2 || !ok3 || !ok4 || Kind(kind) != KindOutcome {
		return nil, 0, fmt.Errorf("%w: record payload is not [kind 1, object, entry, params]", ErrCorrupt)
	}
	return &Record{Kind: KindOutcome, Object: object, Entry: entry, Params: params}, n, nil
}
