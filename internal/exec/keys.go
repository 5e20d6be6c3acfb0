package exec

import (
	"encoding/binary"
	"strconv"
	"time"

	"cloudviews/internal/data"
)

// This file owns the collision-free encodings of value tuples used as hash
// and merge keys. The historical encoding ("%d:%s" per value, joined with
// "\x00") collided whenever a string value itself contained the separator
// followed by a plausible prefix — e.g. the rows ("x\x003:y", "z") and
// ("x", "y\x003:z") produced the same join key. Two encodings replace it:
//
//   - appendKeyValue: kind tag + uvarint length + payload. Compact and
//     allocation-free; used wherever keys only need EQUALITY (hash join,
//     loop join, group-by). Not order-preserving.
//   - appendOrderedKeyValue: the historical rendering with separator bytes
//     escaped. Used by merge join, whose output order is the lexicographic
//     key order — for values free of '\x00'/'\x01' bytes the encoded bytes
//     are identical to the historical encoding, so sort order (and therefore
//     every golden) is preserved while adversarial values still get distinct
//     keys.
//
// Both encodings realize the same equivalence relation as the original:
// two values encode equal iff (Kind, String()) match.

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

// appendOrderedKeyValue appends the order-preserving encoding of one value:
// the historical "<kind>:<payload>" rendering terminated by "\x00", with
// payload bytes '\x00' → "\x01\x01" and '\x01' → "\x01\x02". The escape keeps
// the terminator unambiguous (collision-free) while leaving escape-free
// payloads byte-identical to the historical encoding, preserving merge-join
// emission order.
func appendOrderedKeyValue(dst []byte, v data.Value) []byte {
	dst = strconv.AppendUint(dst, uint64(v.Kind), 10)
	dst = append(dst, ':')
	if v.Kind == data.KindString {
		dst = appendEscaped(dst, v.S)
	} else {
		// Non-string renderings are printable ASCII (digits, sign, dot,
		// RFC3339Nano punctuation) and can never contain the escape bytes.
		dst = appendKeyPayload(dst, v)
	}
	return append(dst, 0x00)
}

func appendEscaped(dst []byte, payload string) []byte {
	for i := 0; i < len(payload); i++ {
		switch c := payload[i]; c {
		case 0x00:
			dst = append(dst, 0x01, 0x01)
		case 0x01:
			dst = append(dst, 0x01, 0x02)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
