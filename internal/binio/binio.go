// Package binio reads the little-endian columns of the SCJ binary
// document format (internal/doc, with the index sections of
// internal/index and internal/vindex) from untrusted streams.
//
// Every read is bounded by what the stream delivers: a forged count or
// length on a truncated stream fails after at most one chunk's
// allocation, never by committing memory up front. Within that bound
// the readers allocate per column, not per value, so a document loads
// back with a handful of bulk reads.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// ReadInts reads n little-endian 4-byte integers, in chunks of at most
// 1<<20 entries.
func ReadInts[T int32 | uint32](r io.Reader, n int) ([]T, error) {
	const chunk = 1 << 20
	col := make([]T, 0, min(n, chunk))
	for len(col) < n {
		c := min(n-len(col), chunk)
		col = slices.Grow(col, c)
		if err := binary.Read(r, binary.LittleEndian, col[len(col):len(col)+c]); err != nil {
			return nil, err
		}
		col = col[:len(col)+c]
	}
	return col, nil
}

// block is the size at which ReadStrings turns buffered bytes into a
// string, and the chunk in which it reads one long string.
const block = 1 << 16

// ReadStrings reads n strings, each a u32 length of at most maxLen
// followed by that many bytes. The bytes collect in one reused buffer
// that grows only as the stream delivers them; each time it fills, its
// contents become one string that the values it holds slice. A load
// allocates about one string per 64 KiB of values, not one per value.
func ReadStrings(r io.Reader, n, maxLen int) ([]string, error) {
	strs := make([]string, 0, min(n, block))
	var (
		buf  []byte // bytes of the strings in lens, not yet in strs
		lens []int
		lb   [4]byte
	)
	flush := func() {
		s := string(buf)
		for _, l := range lens {
			strs = append(strs, s[:l])
			s = s[l:]
		}
		buf, lens = buf[:0], lens[:0]
	}
	for len(strs)+len(lens) < n {
		if _, err := io.ReadFull(r, lb[:]); err != nil {
			return nil, err
		}
		l64 := uint64(binary.LittleEndian.Uint32(lb[:]))
		if l64 > uint64(maxLen) {
			return nil, fmt.Errorf("binio: string %d has length %d > %d", len(strs)+len(lens), l64, maxLen)
		}
		l := int(l64)
		if len(buf)+l > cap(buf) && cap(buf) >= block {
			flush()
		}
		for remaining := l; remaining > 0; {
			c := min(remaining, block)
			start := len(buf)
			if cap(buf)-start < c {
				// Double, not append's 1.25x, so the copies stay
				// within the final size.
				buf = slices.Grow(buf, max(c, start))
			}
			buf = buf[:start+c]
			if _, err := io.ReadFull(r, buf[start:]); err != nil {
				return nil, err
			}
			remaining -= c
		}
		lens = append(lens, l)
	}
	flush()
	return strs, nil
}
