package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// seedFrames builds a few well-formed frames plus the mutations the decoder
// must survive: truncated tails, flipped CRC bytes, oversized lengths.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := appendFrame(&buf, &Record{
		Kind: KindOutcome, Object: "kv", Entry: "Write", Params: []any{1, 2},
	}); err != nil {
		tb.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()...)

	seeds := [][]byte{good, {}, good[:3], parentAckFrame(tb)}
	// Truncated tails at every interesting boundary.
	for _, cut := range []int{recHeaderLen - 1, recHeaderLen, recHeaderLen + 1, len(good) - 1} {
		if cut >= 0 && cut < len(good) {
			seeds = append(seeds, good[:cut])
		}
	}
	// Flipped CRC byte.
	bad := append([]byte(nil), good...)
	bad[5] ^= 0x01
	seeds = append(seeds, bad)
	// Flipped payload byte (CRC now mismatches).
	bad2 := append([]byte(nil), good...)
	bad2[recHeaderLen] ^= 0xff
	seeds = append(seeds, bad2)
	// Oversized / zero lengths.
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[0:4], maxRecordLen+1)
	seeds = append(seeds, huge)
	zero := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zero[0:4], 0)
	seeds = append(seeds, zero)
	return seeds
}

// FuzzDecodeRecord asserts the record decoder never panics, never
// over-reads, and classifies every failure as either a torn tail
// (io.ErrUnexpectedEOF) or corruption (ErrCorrupt).
func FuzzDecodeRecord(f *testing.F) {
	for _, s := range seedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if rec == nil || rec.Kind != KindOutcome {
			t.Fatalf("nil or non-outcome record decoded without error: %+v", rec)
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A decoded record must re-encode; round-tripping must agree.
		var buf bytes.Buffer
		if err := appendFrame(&buf, rec); err != nil {
			t.Fatalf("re-encode decoded record: %v", err)
		}
		rec2, _, err := decodeRecord(buf.Bytes())
		if err != nil {
			t.Fatalf("decode re-encoded record: %v", err)
		}
		if rec2.Kind != rec.Kind || rec2.Object != rec.Object || rec2.Entry != rec.Entry ||
			len(rec2.Params) != len(rec.Params) {
			t.Fatalf("round trip mismatch: %+v vs %+v", rec, rec2)
		}
	})
}

func seedSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	good, err := encodeSnapshot(&Snapshot{
		LSN:     17,
		Objects: map[string][]byte{"kv": {1, 2, 3}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var parent bytes.Buffer
	if err := appendFrame(&parent, &parentSnapshot{
		LSN:     17,
		Objects: map[string][]byte{"kv": {1, 2, 3}},
		Dedup:   []parentAck{{Client: "c", Seq: 9, Results: []any{3}}},
	}); err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{good, parent.Bytes(), {}, good[:recHeaderLen-1], good[:len(good)-1]}
	bad := append([]byte(nil), good...)
	bad[4] ^= 0x10
	seeds = append(seeds, bad)
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[0:4], maxRecordLen+1)
	seeds = append(seeds, huge)
	return seeds
}

// FuzzDecodeSnapshot asserts the snapshot decoder never panics and
// classifies all damage.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range seedSnapshots(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if s == nil {
			t.Fatal("nil snapshot decoded without error")
		}
		// Round trip.
		data2, err := encodeSnapshot(s)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		s2, err := decodeSnapshot(data2)
		if err != nil {
			t.Fatalf("decode re-encoded snapshot: %v", err)
		}
		if s2.LSN != s.LSN || len(s2.Objects) != len(s.Objects) || len(s2.acks) != 0 {
			t.Fatalf("round trip mismatch: %+v vs %+v", s, s2)
		}
	})
}
