package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, RID: 7, Name: "op", Start: 0, End: 100},
		// Two overlapping children of the root: [10,40) and [30,60)
		// cover [10,60), 50 ns, not 60.
		{ID: 2, Parent: 1, RID: 7, Name: "http.request", Start: 10, End: 40},
		{ID: 3, Parent: 1, RID: 7, Name: "http.request", Start: 30, End: 60},
		// A child nested in child 2, and one sticking out of it: only
		// the part inside its parent counts against the parent.
		{ID: 4, Parent: 2, RID: 7, Name: "server.handler", Start: 15, End: 25},
		{ID: 5, Parent: 2, RID: 7, Name: "server.handler", Start: 35, End: 45},
		// A disjoint child of the root.
		{ID: 6, Parent: 1, RID: 7, Name: "plan.run", Start: 80, End: 90},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 10 - 5, 3: 30, 4: 10, 5: 10, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	kids := []span{{Start: 5, End: 10}, {Start: 0, End: 3}, {Start: 8, End: 20}, {Start: 2, End: 4}}
	if got := covered(0, 15, kids); got != 4+10 {
		t.Errorf("covered = %d, want 14 ([0,4) and [5,15))", got)
	}
	if got := covered(0, 15, nil); got != 0 {
		t.Errorf("no children: covered = %d", got)
	}
}

func TestTraceNamesRequestIDOfEverySpan(t *testing.T) {
	rec := newRecorder()
	tc, root := opCtx(rec)
	s, inner := tc.child("plan.run")
	c, _ := inner.child("plan.cursor_next")
	inner.end(c)
	tc.end(s)
	rec.end(root)
	spans, _ := rec.snapshot()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeTrace(path, spans, selfTimes(spans)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var l spanLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.RID != tc.rid || l.RID == 0 {
			t.Errorf("span %q has request id %d, want %d", l.Name, l.RID, tc.rid)
		}
		n++
	}
	if n != 3 {
		t.Errorf("wrote %d spans, want 3", n)
	}
}

func TestUntracedContextRecordsNothing(t *testing.T) {
	var tc tctx
	s, inner := tc.child("plan.run")
	inner.end(s)
	tc.end(s)
	if s.ID != 0 || inner.rec != nil {
		t.Error("an untraced context opened a span")
	}
}
