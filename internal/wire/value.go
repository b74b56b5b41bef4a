package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value tags. Every param/result/message value is `tag | payload`. Integer
// payloads are varints (zigzag for signed), floats are fixed-width
// little-endian IEEE 754, and byte-ish payloads are `uvarint len | bytes`.
// The tag preserves the concrete Go type, so a value round-trips to the
// exact dynamic type it was sent with (an int8 comes back an int8, the way
// gob behaved) — the property-based round-trip test pins this.
const (
	tagNil byte = iota
	tagFalse
	tagTrue
	tagInt
	tagInt8
	tagInt16
	tagInt32
	tagInt64
	tagUint
	tagUint8
	tagUint16
	tagUint32
	tagUint64
	tagFloat32
	tagFloat64
	tagString  // uvarint len | utf-8 bytes (decoded as a copy, short ones shared through the decoder's cache)
	tagBytes   // uvarint len | bytes     (decoded aliasing the frame arena)
	tagList    // uvarint n | n values    ([]any)
	tagMap     // uvarint n | n (string key, value) pairs (map[string]any)
	tagChanRef // uvarint len | channel name
	tagPair    // two zigzag varints ([2]int, the classic buffer-test tuple)
	tagErr     // ErrKind byte | uvarint len | message (any error value)
	tagNamed   // registered user type: uvarint len | type name | uvarint len | gob payload
)

// maxValueDepth bounds nesting of lists/maps so a hostile frame cannot
// recurse the decoder into a stack overflow.
const maxValueDepth = 32

// appendUvarint / appendVarint are binary.AppendUvarint/AppendVarint,
// named locally for symmetry with the readers below.
func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendVarint(dst []byte, v int64) []byte   { return binary.AppendVarint(dst, v) }

// uvarint reads a uvarint off the front of b. n == 0 reports a truncated
// or oversized varint.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated uvarint", ErrMalformed)
	}
	return v, b[n:], nil
}

func varint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrMalformed)
	}
	return v, b[n:], nil
}

// bytesField reads `uvarint len | bytes`, returning a subslice of b (no
// copy) — the caller decides whether aliasing is allowed.
func bytesField(b []byte) ([]byte, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: field length %d exceeds remaining %d bytes", ErrMalformed, n, len(b))
	}
	return b[:n], b[n:], nil
}

func appendBytesField(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendStringField(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendValue encodes one value. Unsupported types (never registered in t)
// return ErrUnsupported before any byte of the value is committed; the
// caller discards the whole frame, so a half-encoded value never reaches
// the wire.
func appendValue(dst []byte, v any, t *TypeTable) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case int:
		return appendVarint(append(dst, tagInt), int64(x)), nil
	case int8:
		return appendVarint(append(dst, tagInt8), int64(x)), nil
	case int16:
		return appendVarint(append(dst, tagInt16), int64(x)), nil
	case int32:
		return appendVarint(append(dst, tagInt32), int64(x)), nil
	case int64:
		return appendVarint(append(dst, tagInt64), x), nil
	case uint:
		return appendUvarint(append(dst, tagUint), uint64(x)), nil
	case uint8:
		return appendUvarint(append(dst, tagUint8), uint64(x)), nil
	case uint16:
		return appendUvarint(append(dst, tagUint16), uint64(x)), nil
	case uint32:
		return appendUvarint(append(dst, tagUint32), uint64(x)), nil
	case uint64:
		return appendUvarint(append(dst, tagUint64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(dst, tagFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(x)), nil
	case string:
		return appendStringField(append(dst, tagString), x), nil
	case []byte:
		return appendBytesField(append(dst, tagBytes), x), nil
	case []any:
		dst = appendUvarint(append(dst, tagList), uint64(len(x)))
		var err error
		for _, e := range x {
			if dst, err = appendValue(dst, e, t); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]any:
		dst = appendUvarint(append(dst, tagMap), uint64(len(x)))
		var err error
		for k, e := range x {
			dst = appendStringField(dst, k)
			if dst, err = appendValue(dst, e, t); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case ChanRef:
		return appendStringField(append(dst, tagChanRef), x.Name), nil
	case [2]int:
		dst = appendVarint(append(dst, tagPair), int64(x[0]))
		return appendVarint(dst, int64(x[1])), nil
	case error:
		msg, kind := EncodeErr(x)
		dst = append(dst, tagErr, byte(kind))
		return appendStringField(dst, msg), nil
	default:
		return t.appendNamed(dst, v)
	}
}

// value decodes one value off the front of b. A tagBytes value aliases the
// frame arena and sets d.aliased, so the arena outlives the value instead
// of being recycled.
func (d *Decoder) value(b []byte, depth int) (any, []byte, error) {
	if depth > maxValueDepth {
		return nil, nil, fmt.Errorf("%w: value nesting exceeds %d", ErrMalformed, maxValueDepth)
	}
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: truncated value", ErrMalformed)
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNil:
		return nil, b, nil
	case tagTrue:
		return true, b, nil
	case tagFalse:
		return false, b, nil
	case tagInt, tagInt8, tagInt16, tagInt32, tagInt64:
		v, b, err := varint(b)
		if err != nil {
			return nil, nil, err
		}
		switch tag {
		case tagInt:
			return int(v), b, nil
		case tagInt8:
			return int8(v), b, nil
		case tagInt16:
			return int16(v), b, nil
		case tagInt32:
			return int32(v), b, nil
		default:
			return v, b, nil
		}
	case tagUint, tagUint8, tagUint16, tagUint32, tagUint64:
		v, b, err := uvarint(b)
		if err != nil {
			return nil, nil, err
		}
		switch tag {
		case tagUint:
			return uint(v), b, nil
		case tagUint8:
			return uint8(v), b, nil
		case tagUint16:
			return uint16(v), b, nil
		case tagUint32:
			return uint32(v), b, nil
		default:
			return v, b, nil
		}
	case tagFloat32:
		if len(b) < 4 {
			return nil, nil, fmt.Errorf("%w: truncated float32", ErrMalformed)
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(b)), b[4:], nil
	case tagFloat64:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("%w: truncated float64", ErrMalformed)
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case tagString:
		raw, b, err := bytesField(b)
		if err != nil {
			return nil, nil, err
		}
		return d.strs.value(raw), b, nil
	case tagBytes:
		raw, b, err := bytesField(b)
		if err != nil {
			return nil, nil, err
		}
		// Ownership transfer: the value aliases the frame arena; the
		// decoder marks the arena as escaped instead of copying.
		d.aliased = true
		return raw, b, nil
	case tagList:
		n, b, err := uvarint(b)
		if err != nil {
			return nil, nil, err
		}
		// Each element costs at least one tag byte, so n > len(b) cannot
		// be satisfied — reject before allocating n slots.
		if n > uint64(len(b)) {
			return nil, nil, fmt.Errorf("%w: list of %d elements in %d bytes", ErrMalformed, n, len(b))
		}
		out := make([]any, n)
		for i := range out {
			if out[i], b, err = d.value(b, depth+1); err != nil {
				return nil, nil, err
			}
		}
		return out, b, nil
	case tagMap:
		n, b, err := uvarint(b)
		if err != nil {
			return nil, nil, err
		}
		if n > uint64(len(b)) {
			return nil, nil, fmt.Errorf("%w: map of %d entries in %d bytes", ErrMalformed, n, len(b))
		}
		out := make(map[string]any, n)
		for i := uint64(0); i < n; i++ {
			var raw []byte
			if raw, b, err = bytesField(b); err != nil {
				return nil, nil, err
			}
			var v any
			if v, b, err = d.value(b, depth+1); err != nil {
				return nil, nil, err
			}
			out[d.strs.str(raw)] = v
		}
		return out, b, nil
	case tagChanRef:
		name, b, err := d.strs.field(b)
		if err != nil {
			return nil, nil, err
		}
		return ChanRef{Name: name}, b, nil
	case tagPair:
		a, b, err := varint(b)
		if err != nil {
			return nil, nil, err
		}
		c, b, err := varint(b)
		if err != nil {
			return nil, nil, err
		}
		return [2]int{int(a), int(c)}, b, nil
	case tagErr:
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("%w: truncated error kind", ErrMalformed)
		}
		kind, b := ErrKind(b[0]), b[1:]
		if !kind.Valid() || kind == ErrNone {
			return nil, nil, fmt.Errorf("%w: unknown error kind %d in value", ErrMalformed, kind)
		}
		msg, b, err := d.strs.field(b)
		if err != nil {
			return nil, nil, err
		}
		return DecodeErr(msg, kind), b, nil
	case tagNamed:
		name, b, err := d.strs.field(b)
		if err != nil {
			return nil, nil, err
		}
		payload, b, err := bytesField(b)
		if err != nil {
			return nil, nil, err
		}
		v, err := d.table.decodeNamed(name, payload)
		if err != nil {
			return nil, nil, err
		}
		return v, b, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown value tag %d", ErrMalformed, tag)
	}
}

// appendValues encodes a value slice as `uvarint n | values`. A nil slice
// encodes as n == 0 and decodes back to nil.
func appendValues(dst []byte, vals []any, t *TypeTable) ([]byte, error) {
	dst = appendUvarint(dst, uint64(len(vals)))
	var err error
	for _, v := range vals {
		if dst, err = appendValue(dst, v, t); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (d *Decoder) values(b []byte) ([]any, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%w: %d values in %d bytes", ErrMalformed, n, len(b))
	}
	out := make([]any, n)
	for i := range out {
		if out[i], b, err = d.value(b, 0); err != nil {
			return nil, nil, err
		}
	}
	return out, b, nil
}
