package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Kind discriminates log records.
type Kind int

// KindOutcome is the one kind written: a participant record, journaled by
// the object runtime in delivery order (entry, parameters) or by a
// participant with a vocabulary of its own through ObjectJournal.Append.
// Replaying them against a fresh participant rebuilds its state. The decoder
// also reads kind 2 from older directories (legacy.go) and refuses kind 3
// (ErrRetiredLayout).
const KindOutcome Kind = 1

// AckLedger is the participant name the node's at-most-once table journals
// and checkpoints under (internal/rpc), so a retried (client, seq) is
// answered from disk after a restart, never re-executed.
const AckLedger = "!acks"

// Record is one durable log entry: Entry names the record's type in the
// Object participant's vocabulary, and Params are what its Replay hook gets.
// Params values must be gob-encodable (the same constraint the rpc wire
// imposes).
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

// ErrRetiredLayout reports an intact record of kind 3, which builds before
// PR 18 used for consensus state kept outside the snapshot contract. It is
// NOT corruption: Open fails and leaves the directory untouched, because
// cutting the journal there would drop a member's term, vote and log.
var ErrRetiredLayout = errors.New("wal: journal holds records of the retired replication layout (kind 3); " +
	"remove this member's data dir and restart it — it rejoins its group by snapshot catch-up")

// recHeaderLen is the frame prologue: uint32 payload length, uint32 CRC.
const recHeaderLen = 8

// maxRecordLen bounds a single record's payload; a length beyond it is
// corruption, not a huge record (prevents a flipped length byte from
// driving a multi-gigabyte allocation during recovery).
const maxRecordLen = 64 << 20

var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func init() {
	// Values travel inside []any; register the composites the rpc layer
	// also supports so parameters survive the gob round trip.
	gob.Register([]any{})
	gob.Register(map[string]any{})
	gob.Register([]byte(nil))
}

// appendFrame encodes v (a record or a snapshot) into a frame appended to
// buf:
//
//	uint32 length | uint32 crc32c(payload) | payload (gob)
func appendFrame(buf *bytes.Buffer, v any) error {
	start := buf.Len()
	var hdr [recHeaderLen]byte // patched once the payload is known
	buf.Write(hdr[:])
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		buf.Truncate(start)
		return fmt.Errorf("wal: encode %T: %w", v, err)
	}
	frame := buf.Bytes()[start:]
	payload := frame[recHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return nil
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

// decodeRecord decodes one framed record from data, returning the record
// and the bytes consumed, with decodeFrame's error classes.
func decodeRecord(data []byte) (*Record, int, error) {
	payload, n, err := decodeFrame(data)
	if err != nil {
		return nil, 0, err
	}
	var rec Record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, 0, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	switch rec.Kind {
	case KindOutcome:
		return &rec, n, nil
	case legacyKindAck:
		ack, err := decodeLegacyAck(payload)
		if err != nil {
			return nil, 0, err
		}
		return ack, n, nil
	case 3:
		return nil, 0, ErrRetiredLayout
	default:
		return nil, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, int(rec.Kind))
	}
}
