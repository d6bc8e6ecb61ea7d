package bench

import (
	"slices"
	"testing"

	"staircase/internal/baseline"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/xmark"
)

// TestBaselinePlansMatchEngine: the paper's comparators, composed from
// internal/baseline steps — the SQL plan of Figure 3 with and without
// the §2.1 window, Experiment 1's naive region queries, and the §6
// tag-fragment path — return exactly the engine's node sequences for
// Q1 and Q2 on an XMark document.
func TestBaselinePlansMatchEngine(t *testing.T) {
	d, err := xmark.Generate(xmark.Config{SizeMB: 0.3, Seed: 77, KeepValues: true})
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(d)
	sqlEng := baseline.NewSQLEngine(d)
	for _, q := range []string{Q1, Q2} {
		want, err := e.EvalString(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Nodes) == 0 {
			t.Fatalf("%s: empty engine result", q)
		}
		plans := map[string]func() ([]int32, error){
			"sql":        func() ([]int32, error) { return SQLPlan(sqlEng, d, q, baseline.SQLOptions{}) },
			"sql-window": func() ([]int32, error) { return SQLPlan(sqlEng, d, q, baseline.SQLOptions{UseWindow: true}) },
			"naive":      func() ([]int32, error) { return naivePlan(d, q), nil },
			"tag-path":   func() ([]int32, error) { return TagPath(d, BaselineSteps[q]) },
		}
		for name, plan := range plans {
			got, err := plan()
			if err != nil {
				t.Fatalf("%s %s: %v", name, q, err)
			}
			if !slices.Equal(got, want.Nodes) {
				t.Errorf("%s %s: %d nodes differ from the engine's %d", name, q, len(got), len(want.Nodes))
			}
		}
	}
}

// naivePlan evaluates Q1 or Q2 with Experiment 1's strawman: per step,
// one region query per context node, sort + unique, then the name test.
func naivePlan(d *doc.Document, query string) []int32 {
	name, kind := d.NameSlice(), d.KindSlice()
	cur := []int32{d.Root()}
	for _, s := range BaselineSteps[query] {
		id, _ := d.Names().Lookup(s.Tag)
		var out []int32
		for _, v := range baseline.NaiveJoin(d, s.Axis, cur, nil) {
			if kind[v] == doc.Elem && name[v] == id {
				out = append(out, v)
			}
		}
		cur = out
	}
	return cur
}
