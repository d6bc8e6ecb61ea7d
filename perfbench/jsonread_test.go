package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// The reader agrees with encoding/json on replies shaped like the
// server's, including null node lists, escaped errors and fields it
// skips.
func TestQueryReplyMatchesDecode(t *testing.T) {
	type result struct {
		Query     string  `json:"query"`
		Count     int     `json:"count"`
		Nodes     []int32 `json:"nodes"`
		Cached    bool    `json:"cached"`
		Coalesced bool    `json:"coalesced,omitempty"`
		ElapsedNs int64   `json:"elapsedNs"`
		Error     string  `json:"error,omitempty"`
	}
	body := struct {
		Doc        string   `json:"doc"`
		Generation uint64   `json:"generation"`
		Results    []result `json:"results"`
		Extra      any      `json:"extra"`
	}{
		Doc: "auction", Generation: 3,
		Results: []result{
			{Query: `//a[contains(., "x\"y")]`, Count: 3, Nodes: []int32{1, 20, 1<<31 - 1}, Cached: true, ElapsedNs: 1234},
			{Query: "//b", Count: 0, Nodes: nil, ElapsedNs: 5},
			{Query: "//c", Error: "bad \"query\"\n", ElapsedNs: -1},
		},
		Extra: map[string]any{"f": 1.5e-3, "l": []any{true, false, nil, "s"}},
	}
	b, err := json.MarshalIndent(body, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := queryReply(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(body.Results) {
		t.Fatalf("%d results, want %d", len(got), len(body.Results))
	}
	for i, want := range body.Results {
		g := got[i]
		if g.count != want.Count || g.nodes.d != digestOf(want.Nodes) || g.elapsedNs != want.ElapsedNs || g.failed != (want.Error != "") {
			t.Errorf("result %d: %+v, want %+v", i, g, want)
		}
	}
	for _, bad := range []string{"", "{", `{"results":[{"count":}]}`, `{"results":[{"nodes":[1,]}]}`, `{"results":[]} x`, `{"results":[{"error":"x}]}`} {
		if _, err := queryReply([]byte(bad), nil); err == nil {
			t.Errorf("%q: no error", bad)
		}
	}
}

// A stream's lines hash into one digest, equal to the whole answer's.
func TestStreamLinesDigest(t *testing.T) {
	lines := []string{`{"nodes":[4,5]}`, `{"nodes":[6]}`, `{"done":true,"count":3,"cached":true,"elapsedNs":77}`}
	h := newHasher()
	var x reply
	for _, l := range lines {
		if err := streamLine([]byte(l), &x, &h); err != nil {
			t.Fatal(err)
		}
	}
	if !x.done || x.count != 3 || x.elapsedNs != 77 || h.d != digestOf([]int32{4, 5, 6}) {
		t.Errorf("stream: %+v digest %+v", x, h.d)
	}
	if err := streamLine([]byte(`{"error":"deadline"}`), &x, &h); err != nil || !x.failed {
		t.Errorf("error line: %v %+v", err, x)
	}
	if err := streamLine([]byte(strings.Repeat("[", 3)), &x, &h); err == nil {
		t.Error("malformed line: no error")
	}
}
