package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// MaxFrame caps the payload size the decoder will buffer for a single
// frame. Anything larger is treated as malformed — a corrupted or hostile
// length prefix must not convince the reader to allocate gigabytes.
const MaxFrame = 16 << 20

// castagnoli is the CRC-32C table; crc32c is hardware-accelerated on the
// platforms we run on.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bufPool recycles encode buffers. Frames are framed as
// `uvarint len | crc32c | payload`, so the encoder builds the payload in a
// pooled scratch first, then commits the framed bytes in one append.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// GetBuf returns a pooled, empty byte slice for encode scratch.
func GetBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuf recycles a buffer obtained from GetBuf. Oversized buffers are
// dropped so one huge frame doesn't pin memory in the pool forever.
func PutBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	bufPool.Put(b)
}

// appendPayload encodes f's body (everything inside the frame envelope).
// Field order is fixed per kind; absent fields are simply not encoded, so
// a request carries no error slot and a response no object name.
func appendPayload(dst []byte, f *Frame, t *TypeTable) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, byte(f.Kind))
	dst = appendUvarint(dst, f.ID)
	var err error
	switch f.Kind {
	case KindRequest:
		dst = appendStringField(dst, f.Object)
		dst = appendStringField(dst, f.Entry)
		dst = appendStringField(dst, f.Client)
		dst = appendUvarint(dst, f.Seq)
		if dst, err = appendValues(dst, f.Params, t); err != nil {
			return nil, err
		}
	case KindResponse:
		dst = append(dst, byte(f.ErrKind))
		dst = appendStringField(dst, f.Err)
		if dst, err = appendValues(dst, f.Results, t); err != nil {
			return nil, err
		}
	case KindChanSend:
		dst = appendStringField(dst, f.Chan)
		if dst, err = appendValues(dst, f.Params, t); err != nil {
			return nil, err
		}
	case KindList:
		// kind and ID only
	case KindListResp:
		dst = appendUvarint(dst, uint64(len(f.Names)))
		for _, n := range f.Names {
			dst = appendStringField(dst, n)
		}
	}
	return dst, nil
}

// AppendFrame appends the complete wire encoding of f —
// `uvarint len | crc32c(payload) | payload` — to dst. Encoding failures
// (unsupported value types) leave dst unchanged, so a half-encoded frame
// can never reach the wire: the caller reports the error to the local
// waiter and the link lives on.
func AppendFrame(dst []byte, f *Frame, t *TypeTable) ([]byte, error) {
	scratch := GetBuf()
	defer PutBuf(scratch)
	payload, err := appendPayload(*scratch, f, t)
	if err != nil {
		return dst, err
	}
	*scratch = payload
	if len(payload) > MaxFrame {
		return dst, fmt.Errorf("%w: frame payload %d exceeds MaxFrame", ErrMalformed, len(payload))
	}
	dst = appendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...), nil
}

// The decoder's short-string cache (docs/WIRE.md §3): every decoded string
// of 1..shortString bytes — header identifiers and tagString values alike —
// is looked up in a 2-way set-associative table of strCacheSets sets,
// indexed by an FNV-1a hash of its bytes. A set keeps its two most recently
// used strings, so two hot strings that hash to one set (a client ID and an
// entry name, say) both stay cached; a miss evicts the less recently used.
// A table holds at most 2×strCacheSets strings of at most shortString
// bytes, whatever the cardinality of the stream.
const (
	strCacheSets = 64
	shortString  = 32
)

// strCache is one table of the short-string cache; each set lists its
// most recently used slot first. A slot keeps its string and, once a
// tagString value has asked for it, the same string boxed: a cached value
// then costs no allocation, and a string field never pays for a box.
type strCache [strCacheSets][2]cachedStr

type cachedStr struct {
	s   string
	box any
}

// Decoder reads frames off a buffered stream. It is not safe for
// concurrent use — each link owns one, driven by its read loop.
type Decoder struct {
	r     *bufio.Reader
	table *TypeTable

	// arena is the per-frame payload buffer. If a decoded value aliased it
	// (tagBytes ownership transfer), the arena has escaped to the caller
	// and is abandoned to the GC; otherwise it is reused for the next
	// frame. This mirrors PR 2's copy-elision rule: the producer hands the
	// buffer over instead of copying, and never touches it again.
	arena []byte
	// aliased records that a value of the frame being decoded aliases the
	// arena.
	aliased bool

	// crc is the frame header's checksum scratch. As a local it escaped
	// through io.ReadFull and cost an allocation per frame.
	crc [4]byte

	// names and strs are the short-string cache's two tables. Header
	// identifiers (object, entry, client and channel names) have names to
	// themselves, so payload strings of any cardinality never evict them;
	// strs serves every other decoded string.
	names, strs strCache

	// bytesRead counts wire bytes consumed (header + CRC + payload),
	// drained by the link into its BytesRecv metric.
	bytesRead uint64
}

// NewDecoder returns a Decoder reading from r using table's registered
// user types. The table should be an immutable Snapshot when links share
// a source table across goroutines.
func NewDecoder(r *bufio.Reader, table *TypeTable) *Decoder {
	return &Decoder{r: r, table: table}
}

// BytesRead returns and resets the count of wire bytes consumed since the
// last call.
func (d *Decoder) BytesRead() uint64 {
	n := d.bytesRead
	d.bytesRead = 0
	return n
}

// cacheable reports whether the short-string cache serves raw.
func cacheable(raw []byte) bool { return len(raw) > 0 && len(raw) <= shortString }

// strSet indexes raw's set in the short-string cache (FNV-1a).
func strSet(raw []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range raw {
		h = (h ^ uint32(c)) * 16777619
	}
	return h % strCacheSets
}

// lookup returns the slot of raw, a cacheable byte string, moving it to the
// front of its set; a miss refills the set's less recently used slot with a
// copy of raw. Strings are immutable, so frames may share one; the copy
// never aliases the arena. The comparisons do not allocate.
func (c *strCache) lookup(raw []byte) *cachedStr {
	set := &c[strSet(raw)]
	if set[0].s == string(raw) {
		return &set[0]
	}
	if set[1].s != string(raw) {
		set[1] = cachedStr{s: string(raw)}
	}
	set[0], set[1] = set[1], set[0]
	return &set[0]
}

// str returns raw as a string: from the cache when short, a copy otherwise.
func (c *strCache) str(raw []byte) string {
	if !cacheable(raw) {
		return string(raw)
	}
	return c.lookup(raw).s
}

// value returns raw as a tagString value: boxed once while it stays
// cached, or a fresh copy when it is too long to cache.
func (c *strCache) value(raw []byte) any {
	if !cacheable(raw) {
		return string(raw)
	}
	e := c.lookup(raw)
	if e.box == nil {
		e.box = e.s
	}
	return e.box
}

// field reads a string field through the cache.
func (c *strCache) field(b []byte) (string, []byte, error) {
	raw, b, err := bytesField(b)
	if err != nil {
		return "", nil, err
	}
	return c.str(raw), b, nil
}

// Decode reads the next frame into f. Frame fields are freshly decoded
// values (or arena aliases, per the tagBytes rule); f's previous contents
// are fully overwritten. Structural problems — bad length, CRC mismatch,
// unknown kinds or tags, trailing garbage — return an error wrapping
// ErrMalformed; the caller should tear the link down, because a stream
// that framed one frame wrong has lost sync for all subsequent ones.
func (d *Decoder) Decode(f *Frame) error {
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return io.EOF
		}
		return err
	}
	hdr := uvarintLen(n)
	if n > MaxFrame {
		return fmt.Errorf("%w: frame length %d exceeds MaxFrame", ErrMalformed, n)
	}
	if _, err := io.ReadFull(d.r, d.crc[:]); err != nil {
		return fmt.Errorf("%w: short frame header: %v", ErrMalformed, err)
	}
	want := binary.LittleEndian.Uint32(d.crc[:])
	if uint64(cap(d.arena)) < n {
		d.arena = make([]byte, n)
	}
	payload := d.arena[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return fmt.Errorf("%w: short frame payload: %v", ErrMalformed, err)
	}
	d.bytesRead += uint64(hdr) + 4 + n
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrMalformed, got, want)
	}

	d.aliased = false
	if err := d.parse(payload, f); err != nil {
		return err
	}
	if d.aliased {
		// A decoded []byte aliases the arena: hand the buffer over and
		// start fresh next frame.
		d.arena = nil
	}
	return nil
}

func (d *Decoder) parse(b []byte, f *Frame) error {
	*f = Frame{}
	if len(b) < 1 {
		return fmt.Errorf("%w: empty payload", ErrMalformed)
	}
	f.Kind = Kind(b[0])
	b = b[1:]
	if !f.Kind.Valid() {
		return fmt.Errorf("%w: unknown frame kind %d", ErrMalformed, int(f.Kind))
	}
	var err error
	if f.ID, b, err = uvarint(b); err != nil {
		return err
	}
	switch f.Kind {
	case KindRequest:
		if f.Object, b, err = d.names.field(b); err != nil {
			return err
		}
		if f.Entry, b, err = d.names.field(b); err != nil {
			return err
		}
		if f.Client, b, err = d.names.field(b); err != nil {
			return err
		}
		if f.Seq, b, err = uvarint(b); err != nil {
			return err
		}
		if f.Params, b, err = d.values(b); err != nil {
			return err
		}
	case KindResponse:
		if len(b) < 1 {
			return fmt.Errorf("%w: truncated response", ErrMalformed)
		}
		f.ErrKind = ErrKind(b[0])
		b = b[1:]
		if !f.ErrKind.Valid() {
			return fmt.Errorf("%w: unknown error kind %d", ErrMalformed, int(f.ErrKind))
		}
		if f.Err, b, err = d.strs.field(b); err != nil {
			return err
		}
		if f.Results, b, err = d.values(b); err != nil {
			return err
		}
	case KindChanSend:
		if f.Chan, b, err = d.names.field(b); err != nil {
			return err
		}
		if f.Params, b, err = d.values(b); err != nil {
			return err
		}
	case KindList:
	case KindListResp:
		var n uint64
		if n, b, err = uvarint(b); err != nil {
			return err
		}
		if n > uint64(len(b)) {
			return fmt.Errorf("%w: %d names in %d bytes", ErrMalformed, n, len(b))
		}
		if n > 0 {
			f.Names = make([]string, n)
			for i := range f.Names {
				if f.Names[i], b, err = d.strs.field(b); err != nil {
					return err
				}
			}
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after frame", ErrMalformed, len(b))
	}
	return nil
}

// DecodeFrame parses a single standalone framed message from b (tests,
// fuzzing). Production links use Decoder for arena reuse and its string
// cache.
func DecodeFrame(b []byte, table *TypeTable) (*Frame, error) {
	d := NewDecoder(bufio.NewReader(bytes.NewReader(b)), table)
	var f Frame
	if err := d.Decode(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// uvarintLen reports the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
