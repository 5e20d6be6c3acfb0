package exec

import (
	"encoding/binary"
	"strconv"
	"time"

	"cloudviews/internal/data"
)

// This file owns the collision-free encoding of value tuples used as join and
// group-by keys. The historical encoding ("%d:%s" per value, joined with
// "\x00") collided whenever a string value itself contained the separator
// followed by a plausible prefix — e.g. the rows ("x\x003:y", "z") and
// ("x", "y\x003:z") produced the same join key. appendKeyValue replaces it:
// kind tag + uvarint length + payload, compact and allocation-free. Keys only
// need equality (the join probe and the group table), so the encoding is not
// order-preserving. It realizes the same equivalence relation as the
// original: two values encode equal iff (Kind, String()) match.

// appendKeyPayload appends the value's canonical rendering (byte-for-byte
// Value.String()) without allocating.
func appendKeyPayload(dst []byte, v data.Value) []byte {
	switch v.Kind {
	case data.KindNull:
		return append(dst, "NULL"...)
	case data.KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case data.KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case data.KindString:
		return append(dst, v.S...)
	case data.KindBool:
		return strconv.AppendBool(dst, v.B)
	case data.KindTime:
		return v.AsTime().UTC().AppendFormat(dst, time.RFC3339Nano)
	default:
		return append(dst, '?')
	}
}

// appendKeyValue appends the length-prefixed encoding of one value:
// kind byte, payload length as uvarint, payload bytes. Concatenations of
// such triples are prefix-free, so multi-column keys cannot collide.
func appendKeyValue(dst []byte, v data.Value) []byte {
	dst = append(dst, byte(v.Kind))
	var lenBuf [binary.MaxVarintLen64]byte
	if v.Kind == data.KindString {
		// Strings are the only payload with unbounded length; append in
		// place so they never round-trip through a scratch buffer.
		n := binary.PutUvarint(lenBuf[:], uint64(len(v.S)))
		dst = append(dst, lenBuf[:n]...)
		return append(dst, v.S...)
	}
	// Every non-string rendering fits in 48 bytes (RFC3339Nano times are ≤30).
	var tmp [48]byte
	payload := appendKeyPayload(tmp[:0], v)
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	dst = append(dst, lenBuf[:n]...)
	return append(dst, payload...)
}
