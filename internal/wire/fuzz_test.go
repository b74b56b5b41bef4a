package wire

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzWireDecode feeds arbitrary byte streams to the frame decoder — the
// migration of internal/rpc's gob-era FuzzFrameDecode corpus to the binary
// codec. readLoop treats any decode failure as link death, so a truncated,
// corrupted, or adversarial stream must produce an error — never a panic,
// a hang, or an unbounded allocation — and whatever does decode must pass
// Validate, round-trip the error codec consistently, and be the frame a
// fresh decoder makes of the same bytes.
func FuzzWireDecode(f *testing.F) {
	tab := NewTypeTable()
	seedFrames := []Frame{
		{Kind: KindRequest, ID: 1, Object: "X", Entry: "P", Params: []any{1, "s"}, Client: "c", Seq: 7},
		{Kind: KindResponse, ID: 2, Results: []any{42}, Err: "boom", ErrKind: ErrKindClosed},
		{Kind: KindChanSend, Chan: "chan-1", Params: []any{[]byte{1, 2, 3}}},
		{Kind: KindList, ID: 3},
		{Kind: KindListResp, ID: 3, Names: []string{"A", "B"}},
		// Group-routed request: a call addressed to a shard.Group published
		// under one name, with the string routing key in params — the wire
		// shape cmd/alpsd serves with -shards.
		{Kind: KindRequest, ID: 4, Object: "words", Entry: "Add", Params: []any{"alps", 3}, Client: "g", Seq: 1},
		{Kind: KindResponse, ID: 4, Err: "shard 2 poisoned", ErrKind: ErrKindPoisoned},
		// Exercise every value tag, including nesting.
		{Kind: KindRequest, ID: 5, Object: "O", Entry: "E", Params: []any{
			nil, true, false, -7, int8(1), int16(2), int32(3), int64(4),
			uint(5), uint8(6), uint16(7), uint32(8), uint64(9),
			float32(1.5), 2.5, "str", []byte{0xff},
			[]any{"nested", map[string]any{"k": [2]int{1, 2}}},
			ChanRef{Name: "ch"},
		}},
		// Consensus traffic (internal/replica) rides the same request
		// frames: votes, append-entries batches and snapshot installs
		// addressed to a group's control endpoint. Seed the healthy shapes
		// so the mutators below derive truncated votes, stale terms and
		// absurd LSNs from realistic bytes.
		{Kind: KindRequest, ID: 6, Object: "!raft:KV", Entry: "RequestVote",
			Params: []any{uint64(7), "b", uint64(42), uint64(6)}, Client: "b", Seq: 9},
		{Kind: KindRequest, ID: 7, Object: "!raft:KV", Entry: "AppendEntries",
			Params: []any{uint64(7), "a", uint64(41), uint64(6), uint64(40), []any{
				[]any{uint64(7), "Append", "c1", uint64(3), []any{"k", "v"}},
				[]any{uint64(7), "", "", uint64(0), []any{}}, // no-op barrier
			}}, Client: "a", Seq: 12},
		// Stale term (0) and absurd LSN/prev-index (max uint64): the replica
		// layer must reject these by value, but the codec must pass them
		// through unharmed — they are structurally legal frames.
		{Kind: KindRequest, ID: 8, Object: "!raft:KV", Entry: "AppendEntries",
			Params: []any{uint64(0), "z", uint64(1<<64 - 1), uint64(1<<64 - 1), uint64(1<<64 - 1), []any{}}},
		{Kind: KindRequest, ID: 9, Object: "!raft:KV", Entry: "InstallSnapshot",
			Params: []any{uint64(8), "a", uint64(1 << 62), uint64(8), []byte("snapshot-blob")}},
		{Kind: KindResponse, ID: 9, Err: "replica: not the leader", ErrKind: ErrKindNotLeader},
		// Three-parameter request shapes under a consensus entry name,
		// with a three-result echo and a four-result AppendEntries ack.
		// The replica no longer serves "Heartbeat" (its ReadIndex round
		// rides an empty AppendEntries), but the codec never reads entry
		// names, so these stay as shape seeds.
		{Kind: KindRequest, ID: 10, Object: "!raft:KV", Entry: "Heartbeat",
			Params: []any{uint64(7), "a", uint64(19)}, Client: "a", Seq: 14},
		{Kind: KindResponse, ID: 10, Results: []any{uint64(7), true, uint64(19)}},
		{Kind: KindResponse, ID: 7, Results: []any{uint64(7), true, uint64(0), uint64(19)}},
		// Hostile values: a counter from the far future and a zero term —
		// structurally legal, passed through unharmed by the codec.
		{Kind: KindRequest, ID: 11, Object: "!raft:KV", Entry: "Heartbeat",
			Params: []any{uint64(0), "", uint64(1<<64 - 1)}},
	}
	var full []byte
	for i := range seedFrames {
		b, err := AppendFrame(full, &seedFrames[i], tab)
		if err != nil {
			f.Fatal(err)
		}
		full = b
	}
	f.Add(append([]byte(nil), full...))
	// Truncations at assorted depths.
	for _, cut := range []int{1, len(full) / 3, len(full) / 2, len(full) - 1} {
		f.Add(append([]byte(nil), full[:cut]...))
	}
	// Truncated consensus frames: a vote, an append-entries batch and the
	// three-parameter request and ack shapes cut mid-payload — what a
	// leader kill mid-round leaves on the wire.
	for _, i := range []int{5, 6, 7, 13, 14, 16} {
		b, err := AppendFrame(nil, &seedFrames[i], tab)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), b[:len(b)/2]...))
		f.Add(append([]byte(nil), b[:len(b)-3]...))
	}
	// Byte corruption sweep (CRC must catch these).
	corrupted := append([]byte(nil), full...)
	for i := 7; i < len(corrupted); i += 13 {
		corrupted[i] ^= 0xff
	}
	f.Add(corrupted)
	// Tag mutation: smash plausible tag positions to out-of-range values.
	mutTags := append([]byte(nil), full...)
	for i := 8; i < len(mutTags); i += 11 {
		mutTags[i] = 200 + byte(i%50)
	}
	f.Add(mutTags)
	// Length mutation: inflate the first frame's length prefix.
	f.Add(append([]byte{0xff, 0xff, 0xff, 0x7f}, full[:16]...))
	f.Add([]byte{})
	// The string cache's edges, across frames: two strings sharing a slot,
	// strings at and one past the length bound, and a []byte beside a
	// string of the same content.
	a, b := slotMates()
	at, over := strings.Repeat("x", shortString), strings.Repeat("y", shortString+1)
	var cache []byte
	for _, fr := range []Frame{
		{Kind: KindRequest, ID: 1, Object: a, Entry: b, Client: a, Params: []any{a, b, "", at}},
		{Kind: KindRequest, ID: 2, Object: b, Entry: a, Client: b, Params: []any{b, a, over, at}},
		{Kind: KindResponse, ID: 2, Results: []any{[]byte(a), a, map[string]any{a: b, at: over}}},
	} {
		var err error
		if cache, err = AppendFrame(cache, &fr, tab); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(cache)

	f.Fuzz(func(t *testing.T, data []byte) {
		// One decoder carries its arena and its string cache from frame to
		// frame. Every frame it yields must equal what a fresh decoder makes
		// of the same bytes — checked after the whole stream, so a later
		// frame cannot have changed an earlier one either.
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		d := NewDecoder(br, tab)
		var frames []Frame
		var spans [][]byte
		for off := 0; len(frames) < 64; {
			var fr Frame
			if err := d.Decode(&fr); err != nil {
				break // corrupt/truncated input must fail cleanly
			}
			// Anything the decoder accepts must be in-protocol.
			if err := fr.Validate(); err != nil {
				t.Fatalf("decoder produced invalid frame %+v: %v", fr, err)
			}
			if err := DecodeErr(fr.Err, fr.ErrKind); (err == nil) != (fr.ErrKind == ErrNone) {
				t.Fatalf("DecodeErr(%q, %d) nil-ness inconsistent", fr.Err, fr.ErrKind)
			}
			end := len(data) - src.Len() - br.Buffered()
			frames = append(frames, fr)
			spans = append(spans, data[off:end])
			off = end
		}
		for i := range frames {
			fresh, err := DecodeFrame(spans[i], tab)
			if err != nil {
				t.Fatalf("frame %d: a fresh decoder refuses %x: %v", i, spans[i], err)
			}
			if !sameFrame(&frames[i], fresh) {
				t.Fatalf("frame %d: one decoder yields %+v, a fresh one %+v", i, frames[i], *fresh)
			}
		}
	})
}

// sameFrame reports whether two decoded frames are equal: equal fields, and
// values of equal dynamic type and content.
func sameFrame(a, b *Frame) bool {
	x, y := *a, *b
	x.Params, x.Results, y.Params, y.Results = nil, nil, nil, nil
	return reflect.DeepEqual(x, y) && sameValue(a.Params, b.Params) && sameValue(a.Results, b.Results)
}

// sameValue is reflect.DeepEqual that compares floats by their bits, so a
// decoded NaN equals itself.
func sameValue(a, b any) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case float32:
		return math.Float32bits(x) == math.Float32bits(b.(float32))
	case float64:
		return math.Float64bits(x) == math.Float64bits(b.(float64))
	case []any:
		y := b.([]any)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y := b.(map[string]any)
		if len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}
