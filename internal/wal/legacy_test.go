package wal

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path"
	"testing"
)

// The shapes a build that wrote the ack ledger as kind-2 records and a
// snapshot Dedup table used on disk, copied so tests can write such a
// directory (decoding them is legacy.go's job).
type parentRecord struct {
	Kind    Kind
	Object  string
	Entry   string
	CallID  uint64
	Client  string
	Seq     uint64
	Params  []any
	Results []any
	ErrMsg  string
	ErrKind int32
	LSN     uint64
}

type parentAck struct {
	Client  string
	Seq     uint64
	Results []any
	ErrMsg  string
	ErrKind int32
}

type parentSnapshot struct {
	LSN     uint64
	Objects map[string][]byte
	Dedup   []parentAck
}

func parentAckFrame(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := appendFrame(&buf, &parentRecord{Kind: 2, Object: "kv", Entry: "Write",
		Client: "c", Seq: 3, Results: []any{"r3"}}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// WriteParentDir writes, into dir on fs, what such a build left behind after
// serving the journaled object "kv": a snapshot at floor 2 holding kv's blob
// "kv@2" and a Dedup table for client "c" seqs 1 and 2, then log records 3..7
// — kv "note" outcomes [3] and [4], and acks of seqs 3, 4 and 2 (the last
// superseding the table's response). It returns the ack ledger as the node
// must recover it, seq by seq.
func WriteParentDir(fs *FailFS, dir string) (map[uint64]string, error) {
	write := func(name string, vs ...any) error {
		var buf bytes.Buffer
		for _, v := range vs {
			if err := appendFrame(&buf, v); err != nil {
				return err
			}
		}
		f, err := fs.Create(path.Join(dir, name))
		if err != nil {
			return err
		}
		if _, err := f.Write(buf.Bytes()); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	}
	ack := func(seq uint64, res string) *parentRecord {
		return &parentRecord{Kind: 2, Object: "kv", Entry: "Write", Client: "c", Seq: seq, Results: []any{res}}
	}
	note := func(n uint64) *parentRecord {
		return &parentRecord{Kind: KindOutcome, Object: "kv", Entry: "note", Params: []any{n}}
	}
	err := write(snapshotName(2), &parentSnapshot{LSN: 2, Objects: map[string][]byte{"kv": []byte("kv@2")},
		Dedup: []parentAck{{Client: "c", Seq: 1, Results: []any{"t1"}}, {Client: "c", Seq: 2, Results: []any{"t2"}}}})
	if err == nil {
		err = write(segmentName(3), note(3), ack(3, "l3"), note(4), ack(4, "l4"), ack(2, "l2"))
	}
	if err == nil {
		err = fs.SyncDir(dir)
	}
	return map[uint64]string{1: "t1", 2: "l2", 3: "l3", 4: "l4"}, err
}

// ParentLeftovers reads dir on fs with the older shapes and counts what
// only such a build writes: kind-2 records in any segment, and Dedup
// entries in any snapshot.
func ParentLeftovers(fs *FailFS, dir string) (kind2, dedup int, err error) {
	names, err := fs.List(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		data := fs.bytesOf(path.Join(dir, name))
		for len(data) > 0 {
			payload, n, err := decodeFrame(data)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			data = data[n:]
			var rec parentRecord
			var snap parentSnapshot
			switch _, isSeg := parseSegmentName(name); {
			case isSeg:
				err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec)
			default:
				err = gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap)
			}
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", name, err)
			}
			if rec.Kind == 2 {
				kind2++
			}
			dedup += len(snap.Dedup)
		}
	}
	return kind2, dedup, nil
}
