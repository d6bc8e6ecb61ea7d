package plan

import (
	"testing"

	"staircase/internal/axis"
	"staircase/internal/doc"
	"staircase/internal/xmark"
)

// shouldPushTag mirrors the join operator's pushdown decision for a tag
// name: exact fragment cardinality from the shared index, then the
// shouldPush policy/cost gate.
func shouldPushTag(d *doc.Document, tag string, bound int64, mode Pushdown, workers int) bool {
	var frag int64
	if id, ok := d.Names().Lookup(tag); ok {
		frag = int64(d.TagIndex().TagCount(id))
	}
	return shouldPush(frag, bound, mode, workers)
}

func costDoc(t *testing.T, mb float64, seed int64) *doc.Document {
	t.Helper()
	d, err := xmark.Generate(xmark.Config{SizeMB: mb, Seed: seed, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCostModelPushesSelectiveTags(t *testing.T) {
	d := costDoc(t, 0.3, 9)
	bound := estimateJoinTouches(d, axis.Descendant, []int32{d.Root()})

	// `education` is rare; the whole-document descendant join from the
	// root would touch everything => push.
	if !shouldPushTag(d, "education", bound, PushAuto, 1) {
		t.Error("expected pushdown for selective tag from root context")
	}
	// Absent tag: trivially pushed (empty fragment).
	if !shouldPushTag(d, "nosuchtag", bound, PushAuto, 1) {
		t.Error("expected pushdown for absent tag")
	}
	// Forced modes override the model.
	if shouldPushTag(d, "education", bound, PushNever, 1) {
		t.Error("PushNever must not push")
	}
	if !shouldPushTag(d, "nosuchtag", bound, PushAlways, 1) {
		t.Error("PushAlways must push")
	}
}

func TestCostModelAvoidsPushForTinyContexts(t *testing.T) {
	d := costDoc(t, 0.3, 9)
	// A context of one small-subtree leaf: the full join touches a
	// handful of nodes, while the `item` fragment is large => no push.
	edu := run(t, d, "//education", nil)
	if len(edu) == 0 {
		t.Fatal("no education nodes")
	}
	leaf := edu[0]
	if d.SubtreeSize(leaf) > 4 {
		t.Skip("education unexpectedly large")
	}
	if shouldPushTag(d, "item", estimateJoinTouches(d, axis.Descendant, []int32{leaf}), PushAuto, 1) {
		t.Error("pushed a large fragment for a tiny context subtree")
	}
}

func TestEstimateJoinTouchesBounds(t *testing.T) {
	d := costDoc(t, 0.2, 3)
	n := int64(d.Size())
	root := []int32{d.Root()}
	// From the root, the descendant bound saturates at the document.
	if got := estimateJoinTouches(d, axis.Descendant, root); got != n {
		t.Errorf("descendant estimate from root = %d, want %d", got, n)
	}
	// Ancestor bound never exceeds the last context pre rank.
	last := int32(d.Size() - 1)
	if got := estimateJoinTouches(d, axis.Ancestor, []int32{last}); got > int64(last) {
		t.Errorf("ancestor estimate %d > %d", got, last)
	}
	// Following/preceding estimates are complementary-ish regions.
	mid := int32(d.Size() / 2)
	f := estimateJoinTouches(d, axis.Following, []int32{mid})
	p := estimateJoinTouches(d, axis.Preceding, []int32{mid})
	if f <= 0 || p <= 0 || f > n || p > n {
		t.Errorf("following/preceding estimates out of range: %d, %d", f, p)
	}
	if estimateJoinTouches(d, axis.Following, nil) != 0 {
		t.Error("empty context should cost 0")
	}
	if estimateJoinTouches(d, axis.Preceding, nil) != 0 {
		t.Error("empty context should cost 0")
	}
}

// TestParallelPushdownCostInteraction: parallelism divides the
// full-join bound, so a borderline fragment that wins serially can
// lose once the join fans out. We only check consistency: the auto
// decision with workers w equals costPushdown with that w.
func TestParallelPushdownCostInteraction(t *testing.T) {
	d := costDoc(t, 0.3, 9)
	bound := estimateJoinTouches(d, axis.Descendant, []int32{d.Root()})
	id, ok := d.Names().Lookup("education")
	if !ok {
		t.Fatal("no education tag")
	}
	frag := int64(d.TagIndex().TagCount(id))
	for _, w := range []int{1, 2, 8, 64} {
		want := costPushdown(frag, bound, w)
		got := shouldPush(frag, bound, PushAuto, w)
		if got != want {
			t.Fatalf("workers=%d: shouldPush=%v costPushdown=%v", w, got, want)
		}
	}
}
