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
	b.Run("decode-frame", func(b *testing.B) {
		b.ReportAllocs()
		encoded, err := AppendFrame(nil, benchFrame(), table)
		if err != nil {
			b.Fatal(err)
		}
		dec := NewDecoder(bufio.NewReader(&loopReader{data: encoded}), table)
		var f Frame
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dec.Decode(&f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
