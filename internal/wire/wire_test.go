package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
)

func mustEncode(t testing.TB, f *Frame, tab *TypeTable) []byte {
	t.Helper()
	b, err := AppendFrame(nil, f, tab)
	if err != nil {
		t.Fatalf("AppendFrame(%+v): %v", f, err)
	}
	return b
}

func roundTrip(t *testing.T, f *Frame, tab *TypeTable) *Frame {
	t.Helper()
	got, err := DecodeFrame(mustEncode(t, f, tab), tab)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	return got
}

// randValue generates a random value of a random supported type,
// recursing into lists and maps.
func randValue(r *rand.Rand, depth int) any {
	max := 18
	if depth > 2 {
		max = 15 // leaf types only once nested a few levels deep
	}
	switch r.Intn(max) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return int(r.Int63()) - math.MaxInt32
	case 3:
		return int8(r.Intn(256) - 128)
	case 4:
		return int16(r.Intn(1 << 16))
	case 5:
		return int32(r.Int31()) - 1<<30
	case 6:
		return r.Int63() - 1<<62
	case 7:
		return uint(r.Uint64())
	case 8:
		return uint8(r.Intn(256))
	case 9:
		return uint16(r.Intn(1 << 16))
	case 10:
		return uint32(r.Uint32())
	case 11:
		return r.Uint64()
	case 12:
		return float32(r.NormFloat64())
	case 13:
		return r.NormFloat64()
	case 14:
		return randString(r)
	case 15:
		b := make([]byte, r.Intn(64))
		r.Read(b)
		return b
	case 16:
		n := r.Intn(5)
		l := make([]any, n)
		for i := range l {
			l[i] = randValue(r, depth+1)
		}
		return l
	default:
		n := r.Intn(5)
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			m[randString(r)] = randValue(r, depth+1)
		}
		return m
	}
}

// randString draws short strings, which the decoder's cache serves, and now
// and then one at either side of its length bound.
func randString(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABC €𝔘\x00"
	n := r.Intn(24)
	if r.Intn(8) == 0 {
		n = shortString + r.Intn(2)
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestValueRoundTripProperty is the property-based codec test: random
// values of every supported type must round-trip to deeply equal values
// with identical dynamic types — an int8 must come back an int8, not an
// int64 — including nested lists and maps. All frames stream through one
// decoder, so its string cache carries values from frame to frame.
func TestValueRoundTripProperty(t *testing.T) {
	tab := NewTypeTable()
	r := rand.New(rand.NewSource(7))
	var stream bytes.Buffer
	d := NewDecoder(bufio.NewReader(&stream), tab)
	for i := 0; i < 2000; i++ {
		vals := make([]any, r.Intn(4)+1)
		for j := range vals {
			vals[j] = randValue(r, 0)
		}
		stream.Write(mustEncode(t, &Frame{Kind: KindRequest, ID: uint64(i), Object: "O", Entry: "E", Params: vals}, tab))
		got := new(Frame)
		if err := d.Decode(got); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Params, vals) {
			t.Fatalf("iteration %d: params %#v round-tripped to %#v", i, vals, got.Params)
		}
		for j := range vals {
			if reflect.TypeOf(vals[j]) != reflect.TypeOf(got.Params[j]) {
				t.Fatalf("iteration %d: value %d type %T became %T", i, j, vals[j], got.Params[j])
			}
		}
	}
}

// TestExplicitValues pins the full supported type set with handpicked
// edge values (extremes, empties, NaN handling by bits).
func TestExplicitValues(t *testing.T) {
	tab := NewTypeTable()
	vals := []any{
		nil, true, false,
		0, -1, math.MaxInt64, math.MinInt64,
		int8(-128), int16(-32768), int32(math.MinInt32), int64(math.MinInt64),
		uint(math.MaxUint64), uint8(255), uint16(65535), uint32(math.MaxUint32), uint64(math.MaxUint64),
		float32(math.Pi), math.Inf(-1), 0.0, math.Copysign(0, -1),
		"", "héllo wörld", string([]byte{0, 1, 2}),
		[]byte{}, []byte{1, 2, 3},
		[]any{}, []any{[]any{[]any{"deep"}}},
		map[string]any{}, map[string]any{"k": map[string]any{"n": 1}},
		ChanRef{Name: "chan-42"},
		[2]int{-3, 1 << 40},
	}
	f := &Frame{Kind: KindRequest, ID: 9, Object: "O", Entry: "E", Params: vals}
	got := roundTrip(t, f, tab)
	if len(got.Params) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got.Params), len(vals))
	}
	for i, want := range vals {
		if !reflect.DeepEqual(got.Params[i], want) {
			t.Errorf("value %d: %#v became %#v", i, want, got.Params[i])
		}
	}
	// NaN can't use DeepEqual; check bits survive separately.
	nan := roundTrip(t, &Frame{Kind: KindRequest, Object: "O", Entry: "E",
		Params: []any{math.NaN(), float32(math.NaN())}}, tab)
	if v, ok := nan.Params[0].(float64); !ok || !math.IsNaN(v) {
		t.Errorf("float64 NaN became %#v", nan.Params[0])
	}
	if v, ok := nan.Params[1].(float32); !ok || !math.IsNaN(float64(v)) {
		t.Errorf("float32 NaN became %#v", nan.Params[1])
	}
}

// TestErrorValuesRoundTrip checks error values inside params keep sentinel
// identity via errors.Is after a wire crossing.
func TestErrorValuesRoundTrip(t *testing.T) {
	tab := NewTypeTable()
	cases := []struct {
		in       error
		sentinel error
	}{
		{core.ErrOverload, core.ErrOverload},
		{fmt.Errorf("shard 3: %w", core.ErrObjectPoisoned), core.ErrObjectPoisoned},
		{ErrReplayTimeout, ErrReplayTimeout},
		{errors.New("plain failure"), nil},
	}
	for _, c := range cases {
		got := roundTrip(t, &Frame{Kind: KindRequest, Object: "O", Entry: "E", Params: []any{c.in}}, tab)
		gotErr, ok := got.Params[0].(error)
		if !ok {
			t.Fatalf("error %v decoded as %T", c.in, got.Params[0])
		}
		if c.sentinel != nil && !errors.Is(gotErr, c.sentinel) {
			t.Errorf("errors.Is(%v, %v) lost across the wire", gotErr, c.sentinel)
		}
		if gotErr.Error() != c.in.Error() {
			t.Errorf("message %q became %q", c.in.Error(), gotErr.Error())
		}
	}
}

// TestBytesAliasArena pins the ownership-transfer rule: decoded []byte
// values alias the decoder's arena (zero copy), and the decoder abandons
// that arena rather than reusing it, so a later frame can never scribble
// over an earlier frame's decoded bytes.
func TestBytesAliasArena(t *testing.T) {
	tab := NewTypeTable()
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	var stream bytes.Buffer
	for i := 0; i < 3; i++ {
		b, err := AppendFrame(nil, &Frame{Kind: KindChanSend, Chan: "c",
			Params: []any{append([]byte(nil), payload...), i}}, tab)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(b)
	}
	d := NewDecoder(bufio.NewReader(&stream), tab)
	var got [][]byte
	for i := 0; i < 3; i++ {
		var f Frame
		if err := d.Decode(&f); err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Params[0].([]byte))
	}
	for i, g := range got {
		if !bytes.Equal(g, payload) {
			t.Fatalf("frame %d bytes corrupted by later decode: %x", i, g)
		}
	}
	// Distinct frames must not share backing storage.
	got[0][0] = 0x00
	if got[1][0] == 0x00 {
		t.Fatal("frames share a backing arena")
	}
}

// TestStringsAreCopies pins the complementary rule: strings never alias
// the arena (they are immutable, so the decoder may reuse its buffer after
// producing them). We verify indirectly: a frame with only strings lets
// the decoder keep its arena, and successive decodes still yield intact
// earlier strings.
func TestStringsAreCopies(t *testing.T) {
	tab := NewTypeTable()
	var stream bytes.Buffer
	for i := 0; i < 2; i++ {
		b, err := AppendFrame(nil, &Frame{Kind: KindChanSend, Chan: "c",
			Params: []any{fmt.Sprintf("value-%d", i)}}, tab)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(b)
	}
	d := NewDecoder(bufio.NewReader(&stream), tab)
	var f0, f1 Frame
	if err := d.Decode(&f0); err != nil {
		t.Fatal(err)
	}
	s0 := f0.Params[0].(string)
	if err := d.Decode(&f1); err != nil {
		t.Fatal(err)
	}
	if s0 != "value-0" {
		t.Fatalf("string from frame 0 corrupted by decode of frame 1: %q", s0)
	}
	if d.arena == nil {
		t.Fatal("decoder abandoned arena for a string-only frame; strings must be copies")
	}
}

// slotMates returns two distinct short strings that share a slot of the
// decoder's string cache.
func slotMates() (string, string) {
	first := map[uint32]string{}
	for i := 0; ; i++ {
		s := fmt.Sprintf("key-%d", i)
		slot := strSlot([]byte(s))
		if mate, ok := first[slot]; ok {
			return mate, s
		}
		first[slot] = s
	}
}

// TestStringCache pins the decoder's short-string cache (docs/WIRE.md §3) at
// its edges. Two strings that share a slot evict each other and still decode
// intact. A string of shortString bytes is shared across frames; one byte
// more is copied per frame. The empty string never takes a slot. A []byte
// beside a string of the same content still aliases the arena, and the
// string does not.
func TestStringCache(t *testing.T) {
	tab := NewTypeTable()
	a, b := slotMates()
	at, over := strings.Repeat("x", shortString), strings.Repeat("y", shortString+1)
	frames := []*Frame{
		{Kind: KindRequest, ID: 1, Object: a, Entry: b, Client: a, Params: []any{a, b, ""}},
		{Kind: KindRequest, ID: 2, Object: b, Entry: a, Params: []any{b, a, at, over}},
		{Kind: KindResponse, ID: 2, Results: []any{at, over, a, []any{b, map[string]any{a: b, b: a}}}},
		{Kind: KindChanSend, Chan: "same", Params: []any{[]byte("same"), "same"}},
	}
	var stream bytes.Buffer
	for _, f := range frames {
		stream.Write(mustEncode(t, f, tab))
	}
	d := NewDecoder(bufio.NewReader(&stream), tab)
	got := make([]Frame, len(frames))
	for i := range got {
		if err := d.Decode(&got[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range frames {
		if !reflect.DeepEqual(&got[i], f) {
			t.Errorf("frame %d: %+v decoded through one decoder as %+v", i, f, got[i])
		}
	}

	if p, q := unsafe.StringData(got[1].Params[2].(string)), unsafe.StringData(got[2].Results[0].(string)); p != q {
		t.Errorf("a %d-byte string was copied per frame, want it cached", shortString)
	}
	if p, q := unsafe.StringData(got[1].Params[3].(string)), unsafe.StringData(got[2].Results[1].(string)); p == q {
		t.Errorf("a %d-byte string was cached, want a copy per frame", shortString+1)
	}
	for i, e := range d.strs {
		if e.s == "" && e.box != nil {
			t.Errorf("slot %d holds the empty string", i)
		}
	}

	bs, s := got[3].Params[0].([]byte), got[3].Params[1].(string)
	if !bytes.Contains(bs[:cap(bs)], []byte{tagString, 4, 's', 'a', 'm', 'e'}) {
		t.Error("the []byte value is a copy; want it aliasing the frame arena")
	}
	clear(bs[:cap(bs)]) // scribble over the whole arena
	if s != "same" || got[3].Chan != "same" {
		t.Errorf("strings %q and %q changed with the arena; want copies", s, got[3].Chan)
	}
}

// TestHeaderNamesSurvivePayloadChurn: payload strings of any cardinality
// never evict a header identifier from the decoder's cache, so a hot object,
// entry or client name is decoded once however many distinct keys the frames
// carry.
func TestHeaderNamesSurvivePayloadChurn(t *testing.T) {
	tab := NewTypeTable()
	const n = 8 * strCacheSlots
	var stream bytes.Buffer
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		stream.Write(mustEncode(t, &Frame{Kind: KindRequest, ID: uint64(i + 1), Object: "fabric", Entry: "Append", Client: "gen-0",
			Params: []any{key, map[string]any{key: key}}}, tab))
	}
	d := NewDecoder(bufio.NewReader(&stream), tab)
	var first, f Frame
	if err := d.Decode(&first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := d.Decode(&f); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{{first.Object, f.Object}, {first.Entry, f.Entry}, {first.Client, f.Client}} {
			if unsafe.StringData(pair[0]) != unsafe.StringData(pair[1]) {
				t.Fatalf("frame %d: header identifier %q decoded afresh; a payload string evicted it", i, pair[1])
			}
		}
	}
}

// TestFrameKindsRoundTrip covers every frame kind end to end.
func TestFrameKindsRoundTrip(t *testing.T) {
	tab := NewTypeTable()
	frames := []*Frame{
		{Kind: KindRequest, ID: 1, Object: "X", Entry: "P", Params: []any{1, "s"}, Client: "c", Seq: 7},
		{Kind: KindResponse, ID: 2, Results: []any{42}, Err: "boom", ErrKind: ErrKindClosed},
		{Kind: KindResponse, ID: 3},
		{Kind: KindChanSend, Chan: "chan-1", Params: []any{[]byte{1, 2, 3}}},
		{Kind: KindList, ID: 3},
		{Kind: KindListResp, ID: 3, Names: []string{"A", "B"}},
		{Kind: KindListResp, ID: 4},
	}
	for _, f := range frames {
		got := roundTrip(t, f, tab)
		if !reflect.DeepEqual(got, f) {
			t.Errorf("frame %+v round-tripped to %+v", f, got)
		}
	}
}

// TestNegativeControls feeds structurally broken inputs to the decoder:
// truncated varints, oversized lengths, unknown tags and kinds, CRC
// damage, trailing garbage. Every case must fail with ErrMalformed — no
// panic, no hang, no silent success.
func TestNegativeControls(t *testing.T) {
	tab := NewTypeTable()
	good := mustEncode(t, &Frame{Kind: KindRequest, ID: 5, Object: "Obj", Entry: "Do",
		Client: "cli", Seq: 9, Params: []any{"abc", 7, []any{1.5}}}, tab)

	frameWith := func(mut func(payload []byte) []byte) []byte {
		// Rebuild a frame with a mutated payload and a *correct* CRC, so
		// the test exercises the parser, not just the checksum.
		n, hdr := binary.Uvarint(good)
		payload := append([]byte(nil), good[hdr+4:hdr+4+int(n)]...)
		payload = mut(payload)
		out := binary.AppendUvarint(nil, uint64(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
		return append(out, payload...)
	}

	cases := map[string][]byte{
		"empty payload":    frameWith(func(p []byte) []byte { return nil }),
		"unknown kind":     frameWith(func(p []byte) []byte { p[0] = 99; return p }),
		"kind zero":        frameWith(func(p []byte) []byte { p[0] = 0; return p }),
		"truncated":        good[:len(good)-3],
		"trailing garbage": frameWith(func(p []byte) []byte { return append(p, 0xAA) }),
		"unknown tag": frameWith(func(p []byte) []byte {
			return bytes.Replace(p, []byte{tagString, 3, 'a', 'b', 'c'}, []byte{200, 3, 'a', 'b', 'c'}, 1)
		}),
		"oversized field": frameWith(func(p []byte) []byte {
			return bytes.Replace(p, []byte{tagString, 3, 'a', 'b', 'c'}, []byte{tagString, 250, 'a', 'b', 'c'}, 1)
		}),
		"truncated varint": frameWith(func(p []byte) []byte {
			return bytes.Replace(p, []byte{tagInt, 14}, []byte{tagInt, 0x80}, 1)
		}),
		"oversized list": frameWith(func(p []byte) []byte {
			return bytes.Replace(p, []byte{tagList, 1}, []byte{tagList, 0xFF, 0xFF, 0x7F}, 1)
		}),
		"huge frame length": binary.AppendUvarint(nil, MaxFrame+1),
		"crc flip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x01
			return b
		}(),
		"bad response errkind": func() []byte {
			resp := mustEncode(t, &Frame{Kind: KindResponse, ID: 5, Err: "x", ErrKind: ErrGeneric}, tab)
			n, hdr := binary.Uvarint(resp)
			payload := append([]byte(nil), resp[hdr+4:hdr+4+int(n)]...)
			payload[bytes.IndexByte(payload, byte(ErrGeneric))] = 77
			out := binary.AppendUvarint(nil, uint64(len(payload)))
			out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
			return append(out, payload...)
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeFrame(data, tab); err == nil {
			t.Errorf("%s: decode succeeded, want ErrMalformed", name)
		} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersionSkew) {
			// Truncation mid-header surfaces as io errors wrapped in
			// ErrMalformed; anything else is a classification bug.
			t.Errorf("%s: error %v not ErrMalformed", name, err)
		}
	}

	// Nesting bomb: a list-of-list chain deeper than maxValueDepth must be
	// rejected by the depth guard, not blow the stack.
	deep := []byte{}
	for i := 0; i < maxValueDepth+4; i++ {
		deep = append(deep, tagList, 1)
	}
	deep = append(deep, tagNil)
	if _, _, err := NewDecoder(nil, tab).value(deep, 0); !errors.Is(err, ErrMalformed) {
		t.Errorf("nesting bomb: got %v, want ErrMalformed", err)
	}
}

// TestHello pins version negotiation: the right banner passes, a gob
// stream (or any foreign bytes) fails with ErrVersionSkew before a frame
// is parsed, and a future version number is refused.
func TestHello(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ReadHello(&buf); err != nil {
		t.Fatalf("self hello rejected: %v", err)
	}
	for name, banner := range map[string][]byte{
		"gob stream":     {0x2b, 0xff, 0x81, 0x03, 0x01}, // typical gob type-def prefix
		"foreign":        []byte("HTTP/"),
		"future version": {'A', 'L', 'P', 'W', Version + 1},
	} {
		if err := ReadHello(bytes.NewReader(banner)); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("%s: got %v, want ErrVersionSkew", name, err)
		}
	}
	if err := ReadHello(bytes.NewReader([]byte{'A', 'L'})); err == nil {
		t.Error("truncated hello accepted")
	}
}

type testJob struct {
	Name  string
	Pages int
	Tags  []string
}

// TestNamedTypesRoundTrip covers the registered-user-type path.
func TestNamedTypesRoundTrip(t *testing.T) {
	tab := NewTypeTable()
	tab.Register(testJob{})
	snap := tab.Snapshot()
	in := testJob{Name: "thesis", Pages: 88, Tags: []string{"alps", "sched"}}
	got := roundTrip(t, &Frame{Kind: KindRequest, Object: "O", Entry: "E", Params: []any{in}}, snap)
	if !reflect.DeepEqual(got.Params[0], in) {
		t.Fatalf("named type %+v became %+v", in, got.Params[0])
	}

	// Unregistered type: encode must fail with ErrUnsupported, wire stays clean.
	type hidden struct{ X int }
	if _, err := AppendFrame(nil, &Frame{Kind: KindRequest, Object: "O", Entry: "E",
		Params: []any{hidden{1}}}, snap); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("unregistered type: got %v, want ErrUnsupported", err)
	}
	// Decoding a name the receiver doesn't know must be malformed, not a panic.
	empty := NewTypeTable().Snapshot()
	data := mustEncode(t, &Frame{Kind: KindRequest, Object: "O", Entry: "E", Params: []any{in}}, snap)
	if _, err := DecodeFrame(data, empty); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown named type on decode: got %v, want ErrMalformed", err)
	}
}

// TestConcurrentRegister is the regression test for the gob.Register
// sprawl bugfix: many goroutines registering overlapping type sets while
// links snapshot concurrently must neither race (caught by -race) nor
// panic on duplicates — the failure mode global gob registration had.
func TestConcurrentRegister(t *testing.T) {
	tab := NewTypeTable()
	type a struct{ X int }
	type b struct{ Y string }
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tab.Register(a{})
				tab.Register(b{})
				tab.Register(testJob{})
				snap := tab.Snapshot()
				if _, err := AppendFrame(nil, &Frame{Kind: KindRequest, Object: "O", Entry: "E",
					Params: []any{a{j}}}, snap); err != nil {
					t.Errorf("encode after register: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(tab.Names()); got != 3 {
		t.Fatalf("table holds %d names, want 3 (%v)", got, tab.Names())
	}
	// Snapshots are frozen: registering on one must panic loudly rather
	// than mutate a table a live link is reading.
	snap := tab.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("Register on frozen snapshot did not panic")
		}
	}()
	snap.Register(a{})
}

// TestDecoderBytesRead checks the byte accounting the link metrics ride on.
func TestDecoderBytesRead(t *testing.T) {
	tab := NewTypeTable()
	data := mustEncode(t, &Frame{Kind: KindList, ID: 1}, tab)
	d := NewDecoder(bufio.NewReader(bytes.NewReader(data)), tab)
	var f Frame
	if err := d.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if got := d.BytesRead(); got != uint64(len(data)) {
		t.Fatalf("BytesRead = %d, want %d", got, len(data))
	}
	if got := d.BytesRead(); got != 0 {
		t.Fatalf("BytesRead did not reset: %d", got)
	}
}
