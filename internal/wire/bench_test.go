package wire

import (
	"bufio"
	"testing"
)

// benchFrame is a representative request frame for the codec benchmarks:
// mixed scalar parameters, the shape a real call puts on the wire.
func benchFrame() *Frame {
	return &Frame{
		Kind:   KindRequest,
		ID:     12345,
		Object: "Echo",
		Entry:  "P",
		Client: "bench-client",
		Seq:    678,
		Params: []any{42, "payload", true, 3.14, []byte("0123456789abcdef")},
	}
}

// fabricAnswer is the shape of a fabric Append answer (status, member,
// epoch, count, info), the response every keyed append decodes.
func fabricAnswer() *Frame {
	return &Frame{Kind: KindResponse, ID: 123456, Results: []any{"ok", "n1", uint64(3), uint64(4711), ""}}
}

// loopReader replays one encoded frame endlessly, so a single decoder
// can stream b.N frames without per-iteration reader churn.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func BenchmarkWireCodec(b *testing.B) {
	table := DefaultTable.Snapshot()
	b.Run("encode-frame", func(b *testing.B) {
		b.ReportAllocs()
		f := benchFrame()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := GetBuf()
			out, err := AppendFrame(*buf, f, table)
			if err != nil {
				b.Fatal(err)
			}
			*buf = out
			PutBuf(buf)
		}
	})
	decode := func(f *Frame) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			dec := NewDecoder(bufio.NewReader(&loopReader{data: mustEncode(b, f, table)}), table)
			var got Frame
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dec.Decode(&got); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("decode-frame", decode(benchFrame()))
	// The fabric Append answer: short result strings the cache serves.
	b.Run("decode-response", decode(fabricAnswer()))
}
