package doc

import "testing"

func TestComputeStats(t *testing.T) {
	d, err := ShredString(`<r a="1"><x>t</x><x/><!--c--><?p d?></r>`)
	if err != nil {
		t.Fatal(err)
	}
	st := d.ComputeStats()
	if st.Nodes != 7 || st.Elements != 3 || st.Attributes != 1 ||
		st.Texts != 1 || st.Comments != 1 || st.PIs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TagCounts["x"] != 2 || st.TagCounts["r"] != 1 {
		t.Fatalf("tag counts = %v", st.TagCounts)
	}
	// Fanout counts element+text children: r has x, x (comment and PI
	// are not counted).
	if st.MaxFanout != 2 {
		t.Fatalf("fanout = %d, want 2", st.MaxFanout)
	}
	top := st.TopTags(1)
	if len(top) != 1 || top[0].Tag != "x" || top[0].Count != 2 {
		t.Fatalf("TopTags = %v", top)
	}
	// Deepest node is the text inside <x>: level 2.
	if st.Height != 2 {
		t.Fatalf("height = %d, want 2", st.Height)
	}
	if st.AvgLevel <= 0 {
		t.Fatalf("avg level = %f", st.AvgLevel)
	}
}
