package search

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Posting lists are stored Lucene-style: ascending document ordinals,
// delta-encoded, with each delta written as an unsigned varint. Hot tags
// with dense lists compress to ~1 byte per document; sparse lists take
// 2-3 bytes per entry.

// encodePostings serializes an ascending ordinal list.
func encodePostings(list []int32) ([]byte, error) {
	n, err := encodedLen(list)
	if err != nil {
		return nil, err
	}
	return appendPostings(make([]byte, 0, n), list), nil
}

// encodedLen returns the byte length of list's encoding, or an error if
// the list is not strictly ascending.
func encodedLen(list []int32) (int, error) {
	n := 0
	prev := int32(-1)
	for i, ord := range list {
		if ord <= prev {
			return 0, fmt.Errorf("search: posting list not strictly ascending at %d", i)
		}
		n += (bits.Len64(uint64(ord-prev)) + 6) / 7
		prev = ord
	}
	return n, nil
}

// appendPostings appends the encoding of list, which encodedLen has
// accepted, to dst.
func appendPostings(dst []byte, list []int32) []byte {
	prev := int32(-1)
	for _, ord := range list {
		dst = binary.AppendUvarint(dst, uint64(ord-prev))
		prev = ord
	}
	return dst
}

// postingIterator decodes an encoded list incrementally.
type postingIterator struct {
	data []byte
	pos  int
	cur  int32
}

// newPostingIterator starts decoding at the list head.
func newPostingIterator(data []byte) *postingIterator {
	return &postingIterator{data: data, cur: -1}
}

// next returns the next ordinal, or (0, false) at the end of the list.
func (it *postingIterator) next() (int32, bool) {
	if it.pos >= len(it.data) {
		return 0, false
	}
	delta, n := binary.Uvarint(it.data[it.pos:])
	if n <= 0 {
		// Corrupt encoding: surface as end-of-list; builders validate at
		// encode time so this indicates memory corruption in tests.
		return 0, false
	}
	it.pos += n
	it.cur += int32(delta)
	return it.cur, true
}

// bytesConsumed reports how far into the encoded bytes the iterator is —
// the quantity the timing model charges to the memory system.
func (it *postingIterator) bytesConsumed() int { return it.pos }

// decodePostings fully decodes a list into dst's backing array, replacing
// its contents, and returns the ordinals. It allocates only when dst may
// be too short for the list.
func decodePostings(dst []int32, data []byte) []int32 {
	// Every entry takes at least one byte, so len(data) bounds the count.
	if cap(dst) < len(data) {
		dst = make([]int32, 0, len(data))
	}
	out := dst[:0]
	it := newPostingIterator(data)
	for {
		ord, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, ord)
	}
}
