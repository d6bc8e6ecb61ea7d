package binio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

func encodeStrings(strs []string) []byte {
	var buf bytes.Buffer
	for _, s := range strs {
		_ = binary.Write(&buf, binary.LittleEndian, uint32(len(s)))
		buf.WriteString(s)
	}
	return buf.Bytes()
}

func TestReadStringsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var strs []string
	for i := 0; i < 3000; i++ {
		strs = append(strs, strings.Repeat(string(rune('a'+i%26)), rng.Intn(100)))
		if i == 1500 {
			// Longer than a block: read in chunks, straddling a flush.
			strs = append(strs, strings.Repeat("L", 3*block+7))
		}
	}
	for _, in := range [][]string{nil, {""}, {"x"}, strs} {
		got, err := ReadStrings(bytes.NewReader(encodeStrings(in)), len(in), 1<<20)
		if err != nil {
			t.Fatalf("%d strings: %v", len(in), err)
		}
		if len(got) != len(in) {
			t.Fatalf("read %d strings, want %d", len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("string %d: got %d bytes, want %d", i, len(got[i]), len(in[i]))
			}
		}
	}
}

func TestReadStringsRejects(t *testing.T) {
	raw := encodeStrings([]string{"ab", "cde", "f"})
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadStrings(bytes.NewReader(raw[:cut]), 3, 10); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ReadStrings(bytes.NewReader(raw), 3, 2); err == nil {
		t.Fatal("string longer than maxLen accepted")
	}
	if _, err := ReadStrings(bytes.NewReader(raw), 3, 3); err != nil {
		t.Fatalf("strings at maxLen rejected: %v", err)
	}
}

func TestReadInts(t *testing.T) {
	const n = 1<<20 + 5 // spans two chunks
	raw := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(int32(i-7)))
	}
	got, err := ReadInts[int32](bytes.NewReader(raw), n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int32(i-7) {
			t.Fatalf("entry %d = %d", i, v)
		}
	}
	u, err := ReadInts[uint32](bytes.NewReader(raw[:8]), 2)
	if err != nil || u[0] != 1<<32-7 || u[1] != 1<<32-6 {
		t.Fatalf("uint32 read = %v, %v", u, err)
	}
	if _, err := ReadInts[int32](bytes.NewReader(raw[:len(raw)-1]), n); err == nil {
		t.Fatal("truncated column accepted")
	}
}
