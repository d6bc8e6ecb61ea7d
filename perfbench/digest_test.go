package main

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func TestStreamedDigestMatchesWhole(t *testing.T) {
	nodes := []int32{3, 7, 8, 1 << 20, 1<<31 - 1}
	for _, cut := range []int{0, 1, 3, len(nodes)} {
		h := newHasher()
		h.add(nodes[:cut])
		h.add(nodes[cut:])
		if h.d != digestOf(nodes) {
			t.Errorf("batches cut at %d: %+v, want %+v", cut, h.d, digestOf(nodes))
		}
	}
	// An empty answer streams no batch at all.
	if h := newHasher(); h.d != digestOf(nil) {
		t.Errorf("empty stream: %+v, want %+v", h.d, digestOf(nil))
	}
	if digestOf([]int32{1, 2}) == digestOf([]int32{2, 1}) {
		t.Error("digest ignores node order")
	}
}

// The inline hash is FNV-1a over the little-endian node bytes.
func TestDigestIsFNV1a(t *testing.T) {
	nodes := []int32{0, 5, 1 << 20, 1<<31 - 1}
	f := fnv.New64a()
	for _, v := range nodes {
		f.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
	}
	if got := digestOf(nodes); got.Hash != f.Sum64() || got.Count != len(nodes) {
		t.Errorf("digest %+v, want hash %x count %d", got, f.Sum64(), len(nodes))
	}
}
