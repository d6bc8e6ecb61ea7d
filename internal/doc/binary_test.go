package doc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"staircase/internal/vindex"
)

func TestBinaryRoundTrip(t *testing.T) {
	inputs := []string{
		figure1XML,
		`<r id="1" x="y"><c a="b">text</c><!--note--><?pi data?></r>`,
	}
	for _, in := range inputs {
		d1, err := ShredString(in)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d1.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if d1.Size() != d2.Size() || d1.Height() != d2.Height() {
			t.Fatalf("size/height mismatch for %q", in)
		}
		for v := int32(0); int(v) < d1.Size(); v++ {
			if d1.Post(v) != d2.Post(v) || d1.Level(v) != d2.Level(v) ||
				d1.KindOf(v) != d2.KindOf(v) || d1.Name(v) != d2.Name(v) ||
				d1.Parent(v) != d2.Parent(v) || d1.Value(v) != d2.Value(v) {
				t.Fatalf("node %d differs for %q", v, in)
			}
		}
	}
}

func TestBinaryRoundTripWithoutValues(t *testing.T) {
	b := NewBuilder(WithoutValues())
	b.OpenElem("a")
	b.Text("dropped")
	b.CloseElem()
	d1, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.HasValues() {
		t.Fatal("values flag should not survive")
	}
}

func TestBinaryRoundTripRandomDocs(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 10; trial++ {
		d1 := genRandomDoc(rng, 300)
		var buf bytes.Buffer
		if err := d1.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		d2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < d1.Size(); v++ {
			if d1.Post(v) != d2.Post(v) || d1.Name(v) != d2.Name(v) {
				t.Fatalf("trial %d node %d differs", trial, v)
			}
		}
	}
}

func TestBinaryV1StillLoads(t *testing.T) {
	d1, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinaryV1(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != "SCJ1" {
		t.Fatalf("v1 magic = %q", got)
	}
	d2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.IndexBuilt() {
		t.Fatal("v1 file must not arrive with a persisted index")
	}
	// The index builds lazily and matches the v2-persisted one.
	ix := d2.TagIndex()
	if !d2.IndexBuilt() || ix.Entries() != int64(d2.Size()) {
		t.Fatalf("lazy index covers %d of %d nodes", ix.Entries(), d2.Size())
	}
	for v := int32(0); int(v) < d1.Size(); v++ {
		if d1.Post(v) != d2.Post(v) || d1.Name(v) != d2.Name(v) || d1.Value(v) != d2.Value(v) {
			t.Fatalf("node %d differs after v1 round trip", v)
		}
	}
}

func TestBinaryV2CarriesIndex(t *testing.T) {
	d1, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != "SCJ2" {
		t.Fatalf("v2 magic = %q", got)
	}
	d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.IndexBuilt() {
		t.Fatal("v2 file must arrive with the index attached")
	}
	want, got := d1.TagIndex(), d2.TagIndex()
	if want.NumTags() != got.NumTags() || want.Entries() != got.Entries() {
		t.Fatalf("persisted index shape differs: %d/%d tags, %d/%d entries",
			got.NumTags(), want.NumTags(), got.Entries(), want.Entries())
	}
	for id := 0; id < want.NumTags(); id++ {
		w, g := want.Tag(int32(id)), got.Tag(int32(id))
		if len(w) != len(g) {
			t.Fatalf("tag %d: %d vs %d entries", id, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("tag %d entry %d differs", id, i)
			}
		}
	}
	if d2.IndexBytes() == 0 {
		t.Fatal("IndexBytes of a loaded v2 document must be non-zero")
	}
}

func TestBinaryV2CarriesValueIndex(t *testing.T) {
	d1, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d1.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !d1.ValueIndexBuilt() {
		t.Fatal("WriteBinary must build the value index it persists")
	}
	d2, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.ValueIndexBuilt() {
		t.Fatal("v2 file of a value-bearing document must arrive with the value index attached")
	}
	want, got := d1.ValueIndex(), d2.ValueIndex()
	if want.Entries() != got.Entries() || want.NumValues() != got.NumValues() {
		t.Fatalf("persisted value index shape differs: %d/%d entries, %d/%d values",
			got.Entries(), want.Entries(), got.NumValues(), want.NumValues())
	}
	if got.Entries() != int64(d2.Size()) {
		t.Fatalf("value index covers %d of %d nodes", got.Entries(), d2.Size())
	}
	if d2.ValueIndexBytes() == 0 {
		t.Fatal("ValueIndexBytes of a loaded v2 document must be non-zero")
	}
	// A v1 file has no section; the value index builds lazily.
	var v1 bytes.Buffer
	if err := d1.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	d3, err := ReadBinary(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if d3.ValueIndexBuilt() {
		t.Fatal("v1 file must not arrive with a value index")
	}
	if ix := d3.ValueIndex(); ix == nil || ix.Entries() != int64(d3.Size()) {
		t.Fatal("lazy value index incomplete")
	}
}

func TestValueIndexNilWithoutValues(t *testing.T) {
	b := NewBuilder(WithoutValues())
	b.OpenElem("a")
	b.Text("dropped")
	b.CloseElem()
	d, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if d.ValueIndex() != nil {
		t.Fatal("ValueIndex must be nil for documents built without values")
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.ValueIndexBuilt() || d2.ValueIndex() != nil {
		t.Fatal("value-less v2 file must not carry a value index")
	}
}

func TestReadBinaryRejectsCorruptIndexSection(t *testing.T) {
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := d.WriteBinaryV1(&v1); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteBinary(&v2); err != nil {
		t.Fatal(err)
	}
	// Everything past the shared payload is the index section; corrupt
	// every byte of it in turn. Either the read errors, or (if the flip
	// happens to produce another canonical section — it cannot, but the
	// property we rely on is the error) it must not panic.
	sectionStart := v1.Len() // same payload length up to the section
	raw := v2.Bytes()
	for i := sectionStart; i < len(raw); i++ {
		mut := bytes.Clone(raw)
		mut[i] ^= 0x01
		if _, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corrupt index byte %d accepted", i)
		}
	}
	// Truncations inside the index section must also error.
	for cut := sectionStart; cut < len(raw); cut++ {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated index section at %d accepted", cut)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SCJ1"), // truncated header
		append([]byte("SCJ1"), make([]byte, 12)...), // zero nodes
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadBinaryRejectsCorruptEncoding(t *testing.T) {
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt a post rank inside the column area; Validate must catch it.
	raw[20] ^= 0x55
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected validation error on corrupt post column")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEncodedBytesStorageClaim(t *testing.T) {
	// §4.1: "a document occupies only about 1.5× its size in Monet".
	// 13 bytes/node of structural encoding vs XML text that typically
	// weighs ≥ 9 bytes per node — sanity-check the accounting.
	d, err := ShredString(figure1XML)
	if err != nil {
		t.Fatal(err)
	}
	got := d.EncodedBytes()
	want := int64(10*17) + int64(len("abcdefghij")) + 10*4
	if got != want {
		t.Fatalf("EncodedBytes = %d, want %d", got, want)
	}
}

// valuesOffset returns where the node-value column (or, for a
// value-less document, the section after the dictionary) starts in the
// binary encoding of d: the header, the five n-entry columns and the
// length-prefixed dictionary precede it.
func valuesOffset(d *Document) int {
	off := 16 + 17*d.Size() + 4
	for id := 0; id < d.Names().Len(); id++ {
		off += 4 + len(d.Names().Name(int32(id)))
	}
	return off
}

// allocDuring reports the bytes f allocates.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestReadBinaryForgedLengthsFailSmall(t *testing.T) {
	d, err := ShredString(`<r><a>xy<b/>z</a><c>short</c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var sec bytes.Buffer
	if err := d.ValueIndex().WriteSection(&sec); err != nil {
		t.Fatal(err)
	}
	// The value section ends the file; its first value length follows
	// the three-word section header.
	vsec := len(raw) - sec.Len()
	cases := []struct {
		name string
		at   int
		l    uint32
	}{
		{"node value", valuesOffset(d), 1 << 28},
		{"value section", vsec + 12, vindex.MaxKeyLen + 1},
	}
	for _, c := range cases {
		mut := bytes.Clone(raw[:c.at+4+16])
		binary.LittleEndian.PutUint32(mut[c.at:], c.l)
		var rerr error
		alloc := allocDuring(func() { _, rerr = ReadBinary(bytes.NewReader(mut)) })
		if rerr == nil {
			t.Errorf("%s: forged length %d on a truncated stream accepted", c.name, c.l)
		}
		if alloc >= 4<<20 {
			t.Errorf("%s: forged length %d allocated %d bytes", c.name, c.l, alloc)
		}
	}
}

func TestReadBinaryRejectsValueIndexMismatch(t *testing.T) {
	long := strings.Repeat("w", vindex.MaxKeyLen+1)
	d, err := ShredString(`<r><a>xy<b/>z</a><c>short</c><l>` + long + `</l></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	var sec bytes.Buffer
	if err := d.ValueIndex().WriteSection(&sec); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:buf.Len()-sec.Len()]
	find := func(name string) int32 {
		for v := int32(0); int(v) < d.Size(); v++ {
			if d.KindOf(v) == Elem && d.Name(v) == name {
				return v
			}
		}
		t.Fatalf("no element %q", name)
		return -1
	}
	a, c := find("a"), find("c")
	// load replaces the value section with one built from the true
	// values, except that node forged gets value val (overflow when
	// val is long).
	load := func(forged int32, val string) error {
		var b vindex.Builder
		for v := int32(0); int(v) < d.Size(); v++ {
			s, ok := d.boundedStringValue(v)
			if v == forged {
				s, ok = val, len(val) <= vindex.MaxKeyLen
			}
			if ok {
				b.Add(v, s)
			} else {
				b.AddOverflow(v)
			}
		}
		var fsec bytes.Buffer
		if err := b.Build(d.Size()).WriteSection(&fsec); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBinary(bytes.NewReader(append(bytes.Clone(head), fsec.Bytes()...)))
		return err
	}
	if err := load(a, "xyz"); err != nil {
		t.Fatalf("true value section rejected: %v", err)
	}
	for _, val := range []string{"xyZ", "Xyz", "xy", "xyzz", "xz", "", "shorT"} {
		if err := load(a, val); err == nil {
			t.Errorf("element keyed under %q, value %q, accepted", val, "xyz")
		}
	}
	if err := load(c+1, "shorT"); err == nil {
		t.Error("text node keyed under a value one byte off accepted")
	}
	if err := load(c, long); err == nil {
		t.Error("overflow node whose value fits a key accepted")
	}
	if err := load(find("l"), "w"); err == nil {
		t.Error("keyed node whose value overflows accepted")
	}
}
