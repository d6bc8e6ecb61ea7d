package main

import (
	"fmt"

	"staircase"
)

// digest identifies an answer without keeping it: its node count and an
// FNV-1a hash of the node list (of its first Limit nodes when a limit
// applies).
type digest struct {
	Count int
	Hash  uint64
}

// hasher builds a digest incrementally, node by node, so a streamed
// answer is checked without concatenating it and a reply is hashed
// straight from its bytes. The hash is FNV-1a over the nodes as
// little-endian uint32s, computed inline.
type hasher struct {
	d digest
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newHasher() hasher { return hasher{d: digest{Hash: fnvOffset64}} }

func (h *hasher) node(v uint32) {
	x := h.d.Hash
	for i := 0; i < 4; i++ {
		x ^= uint64(byte(v))
		x *= fnvPrime64
		v >>= 8
	}
	h.d.Hash = x
	h.d.Count++
}

func (h *hasher) add(nodes []int32) {
	for _, v := range nodes {
		h.node(uint32(v))
	}
}

func digestOf(nodes []int32) digest {
	h := newHasher()
	h.add(nodes)
	return h.d
}

// answerKey names one expected answer: a query on a document, cut to
// its first limit nodes (0 = the whole answer).
type answerKey struct {
	Doc   string
	Query string
	Limit int
}

// oracle holds the expected digest of every answer a run may check.
type oracle map[answerKey]digest

// referenceOptions is the evaluation path the oracle computes answers
// on. It shares no access path with the timed calls, which run with the
// default options: no tag index (column rescans), no value index
// (per-node predicate programs), no reordering, no name-test pushdown,
// and the basic partitioned scan without skipping (the paper's
// Algorithm 2) in place of estimation-based skipping.
var referenceOptions = staircase.Options{
	Strategy:     staircase.StaircaseNoSkip,
	Pushdown:     staircase.PushNever,
	NoIndex:      true,
	NoValueIndex: true,
	NoReorder:    true,
}

// addAnswers evaluates query on d through the reference path and stores
// the digest of the whole answer and of its prefix for each limit.
func (o oracle) addAnswers(docName string, d *staircase.Document, query string, limits ...int) error {
	if _, ok := o[answerKey{docName, query, 0}]; ok {
		return nil
	}
	opts := referenceOptions
	res, err := d.Query(query, &opts)
	if err != nil {
		return fmt.Errorf("reference answer for %q: %w", query, err)
	}
	o[answerKey{docName, query, 0}] = digestOf(res.Nodes)
	for _, k := range limits {
		o[answerKey{docName, query, k}] = digestOf(res.Nodes[:min(k, len(res.Nodes))])
	}
	return nil
}

// check reports whether got is the expected answer for k. A key the
// oracle lacks is a benchmark bug and counts as wrong.
func (o oracle) check(k answerKey, got digest) bool {
	want, ok := o[k]
	return ok && want == got
}
