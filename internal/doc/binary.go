package doc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"staircase/internal/binio"
	"staircase/internal/fault"
	"staircase/internal/index"
	"staircase/internal/vindex"
)

// Binary persistence of the pre/post encoding. Shredding a large
// document is a parse-bound operation; the encoded columns themselves
// are compact (the paper, §4.1: "a document occupies only about 1.5×
// its size in Monet using our storage structure" — the void pre column
// costs nothing, post/level/parent are plain integer arrays). WriteBinary
// and ReadBinary store exactly those columns so a document loads back
// with a handful of bulk reads.
//
// Layout (little endian):
//
//	magic "SCJ2" | flags u32 | n u32 | height i32
//	post  [n]i32 | level [n]i32 | parent [n]i32 | kind [n]u8 | name [n]i32
//	dict: count u32, then per name: len u32 + bytes
//	values (flag bit 0): per node: len u32 + bytes
//	index (flag bit 1): the tag/kind node index, see index.WriteSection
//	value index (flag bit 2): the value index, see vindex.WriteSection
//
// Version 2 adds the optional index section: the per-tag and per-kind
// node lists of internal/index, persisted so a document loads with its
// name-test pushdown fragments ready — no O(n) rebuild scan. Version 1
// ("SCJ1") files are identical up to the dictionary/values sections
// and still load; their index is built in memory on first use.
// WriteBinary always writes the current version; WriteBinaryV1 keeps
// the ability to produce v1 files for compatibility tests and older
// readers.
//
// Value-bearing v2 documents additionally carry the value index
// section (flag bit 2, after the index section), so comparison and
// contains() predicates load with their value fragments ready. Files
// without it — including every file an older writer produced — still
// load; their value index is built in memory on first use.
const (
	binaryMagicV1 = "SCJ1"
	binaryMagicV2 = "SCJ2"
)

const (
	flagHasValues = 1 << 0
	flagHasIndex  = 1 << 1 // v2 only
	flagHasVIndex = 1 << 2 // v2 only, requires flagHasValues
)

// WriteBinary serializes the encoded document in the current (SCJ2)
// format, including the tag/kind index section (building the index
// first if the document does not have one yet).
func (d *Document) WriteBinary(w io.Writer) error {
	return d.writeBinary(w, 2)
}

// WriteBinaryV1 serializes the document in the legacy SCJ1 format,
// without an index section.
func (d *Document) WriteBinaryV1(w io.Writer) error {
	return d.writeBinary(w, 1)
}

func (d *Document) writeBinary(w io.Writer, version int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	magic := binaryMagicV1
	if version == 2 {
		magic = binaryMagicV2
	}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var flags uint32
	if d.value != nil {
		flags |= flagHasValues
	}
	if version == 2 {
		flags |= flagHasIndex
		if d.value != nil {
			flags |= flagHasVIndex
		}
	}
	n := uint32(len(d.post))
	for _, v := range []uint32{flags, n, uint32(d.height)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, col := range [][]int32{d.post, d.level, d.parent} {
		if err := binary.Write(bw, binary.LittleEndian, col); err != nil {
			return err
		}
	}
	kinds := make([]byte, len(d.kind))
	for i, k := range d.kind {
		kinds[i] = byte(k)
	}
	if _, err := bw.Write(kinds); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, d.name); err != nil {
		return err
	}
	// Dictionary.
	if err := binary.Write(bw, binary.LittleEndian, uint32(d.names.Len())); err != nil {
		return err
	}
	for id := 0; id < d.names.Len(); id++ {
		if err := writeString(bw, d.names.Name(int32(id))); err != nil {
			return err
		}
	}
	if d.value != nil {
		for _, v := range d.value {
			if err := writeString(bw, v); err != nil {
				return err
			}
		}
	}
	if flags&flagHasIndex != 0 {
		if err := d.TagIndex().WriteSection(bw); err != nil {
			return err
		}
	}
	if flags&flagHasVIndex != 0 {
		if err := d.ValueIndex().WriteSection(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// maxStringLen bounds one stored string (a name or a node value).
const maxStringLen = 1 << 28

// readByteCol reads n bytes in bounded chunks, so a corrupt node count
// on a short stream errors out after at most one chunk's allocation.
func readByteCol(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 22
	col := make([]byte, 0, min(n, chunk))
	for remaining := n; remaining > 0; {
		c := min(remaining, chunk)
		col = append(col, make([]byte, c)...)
		if _, err := io.ReadFull(r, col[len(col)-c:]); err != nil {
			return nil, err
		}
		remaining -= c
	}
	return col, nil
}

// ReadBinary deserializes a document written by WriteBinary (either
// format version, sniffed from the magic bytes) and validates the
// encoding before returning it. Corrupt or truncated input of any
// shape yields an error, never a panic or an unbounded allocation:
// column and string reads are chunked against the stream, the name
// dictionary must be duplicate-free and no larger than the node count,
// Validate rejects any encoding (ranks, levels, kinds, name ids,
// height) that the accessors could not serve safely, and a v2 index
// section must agree exactly with the kind/name columns — a corrupt
// index can never silently change query results.
func ReadBinary(r io.Reader) (*Document, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("doc: read magic: %w", err)
	}
	var version int
	switch string(magic) {
	case binaryMagicV1:
		version = 1
	case binaryMagicV2:
		version = 2
	default:
		return nil, fmt.Errorf("doc: bad magic %q", magic)
	}
	var flags, n uint32
	var height int32
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, err
	}
	known := uint32(flagHasValues)
	if version == 2 {
		known |= flagHasIndex | flagHasVIndex
	}
	if flags&^known != 0 {
		return nil, fmt.Errorf("doc: unknown flags %#x", flags)
	}
	if flags&flagHasVIndex != 0 && flags&flagHasValues == 0 {
		return nil, fmt.Errorf("doc: value index section without node values")
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &height); err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<30 {
		return nil, fmt.Errorf("doc: unreasonable node count %d", n)
	}
	d := &Document{names: NewDict(), height: height}
	var err error
	for _, col := range []*[]int32{&d.post, &d.level, &d.parent} {
		if *col, err = binio.ReadInts[int32](br, int(n)); err != nil {
			return nil, err
		}
	}
	kinds, err := readByteCol(br, int(n))
	if err != nil {
		return nil, err
	}
	d.kind = make([]Kind, n)
	for i, k := range kinds {
		d.kind[i] = Kind(k)
	}
	if d.name, err = binio.ReadInts[int32](br, int(n)); err != nil {
		return nil, err
	}
	var dictLen uint32
	if err := binary.Read(br, binary.LittleEndian, &dictLen); err != nil {
		return nil, err
	}
	if dictLen > n {
		return nil, fmt.Errorf("doc: dictionary of %d names exceeds node count %d", dictLen, n)
	}
	names, err := binio.ReadStrings(br, int(dictLen), maxStringLen)
	if err != nil {
		return nil, fmt.Errorf("doc: read dictionary: %w", err)
	}
	for i, s := range names {
		d.names.Intern(s)
		if d.names.Len() != i+1 {
			return nil, fmt.Errorf("doc: duplicate dictionary entry %q", s)
		}
	}
	if flags&flagHasValues != 0 {
		if d.value, err = binio.ReadStrings(br, int(n), maxStringLen); err != nil {
			return nil, fmt.Errorf("doc: read node values: %w", err)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("doc: corrupt binary document: %w", err)
	}
	if flags&flagHasIndex != 0 {
		if err := fault.Hit("doc.index.read"); err != nil {
			return nil, err
		}
		ix, err := index.ReadSection(br, int(n), d.names.Len(), NumKinds, uint8(Elem))
		if err != nil {
			return nil, fmt.Errorf("doc: corrupt index section: %w", err)
		}
		if err := d.validateIndex(ix); err != nil {
			return nil, fmt.Errorf("doc: corrupt index section: %w", err)
		}
		d.idx.Store(ix)
	}
	if flags&flagHasVIndex != 0 {
		if err := fault.Hit("doc.vindex.read"); err != nil {
			return nil, err
		}
		vix, err := vindex.ReadSection(br, int(n))
		if err != nil {
			return nil, fmt.Errorf("doc: corrupt value index section: %w", err)
		}
		if err := d.validateValueIndex(vix); err != nil {
			return nil, fmt.Errorf("doc: corrupt value index section: %w", err)
		}
		d.vidx.Store(vix)
	}
	return d, nil
}

// validateIndex checks a deserialized index section against the
// document columns: every tag-list entry must be an element carrying
// that exact name id and every kind-list entry a node of that kind.
// Combined with the structural guarantees of index.ReadSection (strict
// sortedness, in-range ranks, total entries == node count) this pins
// the section to the one canonical index of the document.
func (d *Document) validateIndex(ix *index.Index) error {
	for id := 0; id < ix.NumTags(); id++ {
		for _, v := range ix.Tag(int32(id)) {
			if d.kind[v] != Elem || d.name[v] != int32(id) {
				return fmt.Errorf("index: tag list %d contains node %d (kind %v, name %d)",
					id, v, d.kind[v], d.name[v])
			}
		}
	}
	for k := 0; k < ix.NumKinds(); k++ {
		for _, v := range ix.KindList(uint8(k)) {
			if d.kind[v] != Kind(k) {
				return fmt.Errorf("index: kind list %d contains node %d of kind %v", k, v, d.kind[v])
			}
		}
	}
	return nil
}

// validateValueIndex checks a deserialized value section against the
// document: every keyed node's string value must equal the value it is
// listed under, and every overflow node's value must actually exceed
// vindex.MaxKeyLen. Both checks run in place over the value column,
// building no strings. Combined with the structural guarantees of
// vindex.ReadSection (sortedness, keys of at most MaxKeyLen bytes,
// exact partition of [0, n)) this pins the section to the one
// canonical value index of the document — a corrupt section can never
// silently change query results.
func (d *Document) validateValueIndex(ix *vindex.Index) error {
	var bad error
	ix.ForEachString(func(val string, pres []int32) {
		if bad != nil {
			return
		}
		for _, v := range pres {
			if !d.stringValueIs(v, val) {
				bad = fmt.Errorf("vindex: node %d keyed under %q but its string value differs", v, val)
				return
			}
		}
	})
	if bad != nil {
		return bad
	}
	for _, v := range ix.Overflow() {
		if !d.valueOverflows(v) {
			return fmt.Errorf("vindex: node %d in overflow but its value fits a key", v)
		}
	}
	return nil
}

// stringValueIs reports whether node pre's string value is exactly
// val, matching an element's text descendants against successive
// slices of val and stopping at the first difference.
func (d *Document) stringValueIs(pre int32, val string) bool {
	switch d.kind[pre] {
	case Text, Attr, Comment, PI:
		return d.value[pre] == val
	}
	end := pre + d.SubtreeSize(pre)
	for v := pre + 1; v <= end; v++ {
		if d.kind[v] == Text {
			t := d.value[v]
			if !strings.HasPrefix(val, t) {
				return false
			}
			val = val[len(t):]
		}
	}
	return val == ""
}

// valueOverflows reports whether node pre's string value is longer than
// vindex.MaxKeyLen, summing text lengths until the sum passes the cap.
func (d *Document) valueOverflows(pre int32) bool {
	switch d.kind[pre] {
	case Text, Attr, Comment, PI:
		return len(d.value[pre]) > vindex.MaxKeyLen
	}
	total := 0
	end := pre + d.SubtreeSize(pre)
	for v := pre + 1; v <= end; v++ {
		if d.kind[v] == Text {
			if total += len(d.value[v]); total > vindex.MaxKeyLen {
				return true
			}
		}
	}
	return false
}

// EncodedBytes returns the in-memory footprint of the structural
// encoding in bytes (excluding string values and the tag/kind index,
// see IndexBytes): 13 bytes per node (post, level, parent, name id: 4
// each; kind: 1) plus the name dictionary. The pre column is void and
// costs nothing — this is the quantity behind the paper's "1.5×
// document size" storage claim.
func (d *Document) EncodedBytes() int64 {
	n := int64(len(d.post))
	bytes := n * (4 + 4 + 4 + 4 + 1)
	for id := 0; id < d.names.Len(); id++ {
		bytes += int64(len(d.names.Name(int32(id)))) + 4
	}
	return bytes
}
