package exec

import (
	"encoding/binary"
	"hash/maphash"

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

// appendKeyValue appends the length-prefixed encoding of one value:
// kind byte, payload length as uvarint, payload bytes. Concatenations of
// such triples are prefix-free, so multi-column keys cannot collide.
func appendKeyValue(dst []byte, v data.Value) []byte {
	dst = append(dst, byte(v.Kind))
	var lenBuf [binary.MaxVarintLen64]byte
	if v.Kind == data.KindString {
		// Strings are the only payload with unbounded length; append in
		// place so they never round-trip through a scratch buffer.
		n := binary.PutUvarint(lenBuf[:], uint64(len(v.Str())))
		dst = append(dst, lenBuf[:n]...)
		return append(dst, v.Str()...)
	}
	// Every non-string rendering fits in 48 bytes (RFC3339Nano times are ≤30).
	var tmp [48]byte
	payload := data.AppendValue(tmp[:0], v)
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	dst = append(dst, lenBuf[:n]...)
	return append(dst, payload...)
}

// keySeed keys every hash of an encoded key: the group table's and the join
// build's. Output follows discovery or row order, so no answer depends on it.
var keySeed = maphash.MakeSeed()

// chainIndex finds items by key hash for the group table and the join build:
// head[h&(len(head)-1)] is one past the newest item linked under a hash in
// that slot, next[i] one past the item linked before item i there, and 0 ends
// a chain. An item's key is its owner's to compare, so hashes that collide, or
// share a slot, keep their items apart. Both arrays live in the run's scratch
// and are reset, not allocated, per operator.
type chainIndex struct {
	head []int32
	next []int32
}

// reset empties the index for up to n items: head becomes the least power of
// two of at least 2n slots (16 at least), cleared, and next holds len(head)/2
// links, each written by link before it is read.
func (c *chainIndex) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	c.head = sized(c.head, size)
	clear(c.head)
	c.next = sized(c.next, size/2)
}

// room is how many items the index holds before the owner must reset it
// larger and link its items again.
func (c *chainIndex) room() int { return len(c.next) }

// link puts item i, whose key hashes to h, at the front of its slot's chain.
func (c *chainIndex) link(i int32, h uint64) {
	s := h & uint64(len(c.head)-1)
	c.next[i] = c.head[s]
	c.head[s] = i + 1
}

// first is the newest item linked under h's slot, or -1.
func (c *chainIndex) first(h uint64) int32 { return c.head[h&uint64(len(c.head)-1)] - 1 }

// after is the item linked before i in its chain, or -1.
func (c *chainIndex) after(i int32) int32 { return c.next[i] - 1 }

// poison overwrites both arrays for a released scratch (see poisonReleased).
func (c *chainIndex) poison() {
	fill(c.head[:cap(c.head)], -1)
	fill(c.next[:cap(c.next)], -1)
}
