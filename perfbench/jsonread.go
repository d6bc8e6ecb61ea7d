package main

import "fmt"

// jsonReader reads the server's replies straight from their bytes. It
// hashes node lists as it meets them, so checking an answer costs no
// reflection and no allocation per node, and the client's share of a
// serve operation stays small beside the server's.
type jsonReader struct {
	b   []byte
	i   int
	err error
}

func (r *jsonReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("reply: %s at byte %d", what, r.i)
	}
	r.i = len(r.b)
}

// peek skips white space and returns the next byte, or 0 at the end.
func (r *jsonReader) peek() byte {
	for r.i < len(r.b) {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return c
		}
	}
	return 0
}

func (r *jsonReader) expect(c byte) bool {
	if r.peek() != c {
		r.fail(fmt.Sprintf("want %q", c))
		return false
	}
	r.i++
	return true
}

// object reads an object. field is called with each key and must read
// its value.
func (r *jsonReader) object(field func(key []byte)) {
	if !r.expect('{') {
		return
	}
	if r.peek() == '}' {
		r.i++
		return
	}
	for r.err == nil {
		key := r.str()
		if !r.expect(':') {
			return
		}
		field(key)
		switch r.peek() {
		case ',':
			r.i++
		case '}':
			r.i++
			return
		default:
			r.fail("want , or }")
		}
	}
}

// array reads an array. elem is called for each element and must read
// it.
func (r *jsonReader) array(elem func()) {
	if !r.expect('[') {
		return
	}
	if r.peek() == ']' {
		r.i++
		return
	}
	for r.err == nil {
		elem()
		switch r.peek() {
		case ',':
			r.i++
		case ']':
			r.i++
			return
		default:
			r.fail("want , or ]")
		}
	}
}

// str reads a string and returns its bytes with escapes left as they
// are; the replies' keys have none, and error texts are only tested for
// being empty.
func (r *jsonReader) str() []byte {
	if !r.expect('"') {
		return nil
	}
	start := r.i
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case '\\':
			r.i += 2
		case '"':
			r.i++
			return r.b[start : r.i-1]
		default:
			r.i++
		}
	}
	r.fail("unterminated string")
	return nil
}

func (r *jsonReader) int() int64 {
	r.peek()
	neg := r.i < len(r.b) && r.b[r.i] == '-'
	if neg {
		r.i++
	}
	start := r.i
	var v int64
	for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
		v = v*10 + int64(r.b[r.i]-'0')
		r.i++
	}
	if r.i == start {
		r.fail("want an integer")
	}
	if neg {
		v = -v
	}
	return v
}

// literal reads true, false or null.
func (r *jsonReader) literal() bool {
	r.peek()
	for _, w := range [...]string{"true", "false", "null"} {
		if len(r.b)-r.i >= len(w) && string(r.b[r.i:r.i+len(w)]) == w {
			r.i += len(w)
			return w == "true"
		}
	}
	r.fail("want a literal")
	return false
}

// skip reads any value and drops it.
func (r *jsonReader) skip() {
	switch c := r.peek(); {
	case c == '{':
		r.object(func([]byte) { r.skip() })
	case c == '[':
		r.array(r.skip)
	case c == '"':
		r.str()
	case c == '-' || c >= '0' && c <= '9':
		// Numbers the benchmark skips may have fractions or exponents.
		for r.i < len(r.b) && (r.b[r.i] == '-' || r.b[r.i] == '+' || r.b[r.i] == '.' ||
			r.b[r.i] == 'e' || r.b[r.i] == 'E' || r.b[r.i] >= '0' && r.b[r.i] <= '9') {
			r.i++
		}
	default:
		r.literal()
	}
}

// reply is one result of a /query reply or one line of a /stream reply.
type reply struct {
	count     int
	nodes     hasher
	elapsedNs int64
	failed    bool // the result carries an error
	done      bool // the terminal line of a stream
}

// reply reads one result object into x, hashing its nodes into x.nodes.
func (r *jsonReader) reply(x *reply) {
	r.object(func(key []byte) {
		switch string(key) {
		case "count":
			x.count = int(r.int())
		case "nodes":
			if r.peek() == 'n' {
				r.literal() // null: no nodes
				return
			}
			r.array(func() { x.nodes.node(uint32(r.int())) })
		case "elapsedNs":
			x.elapsedNs = r.int()
		case "error":
			x.failed = len(r.str()) > 0
		case "done":
			x.done = r.literal()
		default:
			r.skip()
		}
	})
}

// queryReply reads a /query reply: its results, in request order.
func queryReply(b []byte, out []reply) ([]reply, error) {
	r := jsonReader{b: b}
	r.object(func(key []byte) {
		if string(key) != "results" {
			r.skip()
			return
		}
		r.array(func() {
			out = append(out, reply{nodes: newHasher()})
			r.reply(&out[len(out)-1])
		})
	})
	if r.err == nil && r.peek() != 0 {
		r.fail("trailing bytes")
	}
	return out, r.err
}

// streamLine reads one NDJSON line of a /stream reply. Its nodes go on
// into h, which spans the whole stream; x.nodes is not used.
func streamLine(b []byte, x *reply, h *hasher) error {
	r := jsonReader{b: b}
	*x = reply{nodes: *h}
	r.reply(x)
	*h = x.nodes
	if r.err == nil && r.peek() != 0 {
		r.fail("trailing bytes")
	}
	return r.err
}
