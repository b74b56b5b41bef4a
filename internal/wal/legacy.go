package wal

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Decode-only support for directories written while the node's ack ledger
// was not a participant: acknowledgements as records of kind 2, and the
// table as a Dedup list in every snapshot. Both read back as AckLedger
// records in the ledger's own vocabulary, `ack [client, seq, results,
// errMsg, errKind]`, and the first snapshot afterwards writes neither shape.
// Nothing writes them; this file retires with an on-disk format version.

const legacyKindAck Kind = 2

// legacyAck is one acknowledgement as those builds wrote it: a kind-2
// record's fields beyond Kind/Object/Entry, or one Dedup list element.
type legacyAck struct {
	Client  string
	Seq     uint64
	Results []any
	ErrMsg  string
	ErrKind int32
}

func (a legacyAck) record(lsn uint64) *Record {
	return &Record{Kind: KindOutcome, Object: AckLedger, Entry: "ack", LSN: lsn,
		Params: []any{a.Client, a.Seq, a.Results, a.ErrMsg, a.ErrKind}}
}

// legacySnapshot is the shape every snapshot payload decodes with; a
// current one has no Dedup list.
type legacySnapshot struct {
	LSN     uint64
	Objects map[string][]byte
	Dedup   []legacyAck
}

func decodeLegacyAck(payload []byte) (*Record, error) {
	var a legacyAck
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&a); err != nil {
		return nil, fmt.Errorf("%w: ack payload: %v", ErrCorrupt, err)
	}
	return a.record(0), nil
}

func decodeSnapshotPayload(payload []byte) (*Snapshot, error) {
	var ls legacySnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ls); err != nil {
		return nil, fmt.Errorf("%w: snapshot payload: %v", ErrCorrupt, err)
	}
	s := &Snapshot{LSN: ls.LSN, Objects: ls.Objects}
	for _, a := range ls.Dedup {
		s.acks = append(s.acks, a.record(ls.LSN))
	}
	return s, nil
}
