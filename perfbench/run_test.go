package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// small returns parameters for a short run on small documents.
func small(t *testing.T, workload string, seed int64) params {
	return params{
		workload: workload, seed: seed,
		duration: 400 * time.Millisecond, warmup: 100 * time.Millisecond,
		dir:    t.TempDir(),
		scanMB: 0.3, serveMB: 0.2, churnMB: 0.2, churnDocs: 4,
	}
}

// lastLine decodes the result line a run printed.
func lastLine(t *testing.T, out *bytes.Buffer) outcome {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return o
}

func TestRunChecksEveryAnswer(t *testing.T) {
	for _, wl := range []string{"scan", "serve", "churn"} {
		t.Run(wl, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := execute(small(t, wl, 3), &out, &errb, nil); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, errb.String())
			}
			o := lastLine(t, &out)
			if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
				t.Fatalf("got %+v", o)
			}
			for _, d := range endToEndMetrics {
				m, ok := o.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("metric %s: got %+v", d.name, m)
				}
			}
			if len(o.Metrics) != len(endToEndMetrics) {
				t.Errorf("got %d metrics, want %d", len(o.Metrics), len(endToEndMetrics))
			}
		})
	}
}

// corruptOne flips the hash of the expected answer of query q, for every
// limit it is checked at.
func corruptOne(q string) func(oracle) {
	return func(o oracle) {
		for k, d := range o {
			if k.Query == q {
				d.Hash ^= 1
				o[k] = d
			}
		}
	}
}

func TestCorruptDigestFailsRun(t *testing.T) {
	cases := []struct {
		workload, query string
	}{
		// Q1 runs in every block of the scan stream, in all four classes.
		{"scan", queryQ1},
		// The serve workload's most popular text.
		{"serve", ""},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			p := small(t, c.workload, 3)
			q := c.query
			if q == "" {
				q = newServe(p).texts[0]
			}
			var out, errb bytes.Buffer
			if code := execute(p, &out, &errb, corruptOne(q)); code != 1 {
				t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb.String())
			}
			o := lastLine(t, &out)
			if o.Correct || o.Failed == 0 {
				t.Fatalf("a wrong answer went unnoticed: %+v", o)
			}
		})
	}
}

func TestTable1CountsRepeatExactly(t *testing.T) {
	counts := func(seed int64) table1Counts {
		w := newScan(small(t, "scan", seed))
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		c, err := table1(w.doc)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := counts(5), counts(5)
	if a != b {
		t.Fatalf("same seed, different counts: %+v vs %+v", a, b)
	}
	if a.Scanned == 0 || a.Skipped == 0 || a.Copied == 0 || a.Result == 0 {
		t.Fatalf("counters not exercised: %+v", a)
	}
}

func TestSeedsDrawDifferentStreams(t *testing.T) {
	p1, p2 := small(t, "", 1), small(t, "", 2)
	if a, b := newScan(p1), newScan(p2); reflect.DeepEqual(a.queries, b.queries) && reflect.DeepEqual(a.ops, b.ops) {
		t.Error("scan: seeds 1 and 2 drew the same stream")
	}
	if a, b := newScan(p1), newScan(p1); !reflect.DeepEqual(a.queries, b.queries) || !reflect.DeepEqual(a.ops, b.ops) {
		t.Error("scan: one seed drew two streams")
	}
	if a, b := newServe(p1), newServe(p2); reflect.DeepEqual(a.texts, b.texts) {
		t.Error("serve: seeds 1 and 2 drew the same texts")
	}
	if a, b := newServe(p1), newServe(p1); !reflect.DeepEqual(a.texts, b.texts) || !reflect.DeepEqual(a.streams, b.streams) {
		t.Error("serve: one seed drew two streams")
	}
	if a, b := newChurn(p1), newChurn(p2); reflect.DeepEqual(a.streams, b.streams) {
		t.Error("churn: seeds 1 and 2 drew the same stream")
	}
}

// requiredSpans are the layer boundaries a traced run must record.
var requiredSpans = map[string][]string{
	"scan":  {"op", "engine.prepare", "plan.run", "plan.cursor_next", "core.join.desc", "core.join.anc", "core.join.fol", "core.join.prec", "doc.read_binary", "catalog.open"},
	"serve": {"op", "http.request", "server.handler", "engine.prepare", "plan.run", "plan.cursor_next", "catalog.open", "doc.read_binary"},
	"churn": {"op", "http.request", "server.handler", "catalog.open", "doc.read_binary", "core.join.desc"},
}

func TestTracedRunCoversEveryLayer(t *testing.T) {
	for wl, names := range requiredSpans {
		t.Run(wl, func(t *testing.T) {
			p := small(t, wl, 4)
			p.trace = true
			var out, errb bytes.Buffer
			if code := execute(p, &out, &errb, nil); code != 0 {
				t.Fatalf("exit %d; stderr:\n%s", code, errb.String())
			}
			o := lastLine(t, &out)
			for _, d := range perLayerMetrics {
				if m, ok := o.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("metric %s: got %+v", d.name, m)
				}
			}
			if len(o.Metrics) != len(perLayerMetrics) {
				t.Errorf("got %d metrics, want %d", len(o.Metrics), len(perLayerMetrics))
			}
			f, err := os.Open(filepath.Join(p.dir, "traces", wl+"-seed4.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			seen := make(map[string]bool)
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var l spanLine
				if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
					t.Fatal(err)
				}
				if l.RID == 0 {
					t.Fatalf("span without request id: %s", sc.Text())
				}
				seen[l.Name] = true
			}
			for _, n := range names {
				if !seen[n] {
					t.Errorf("no %s span in the trace", n)
				}
			}
		})
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	for _, w := range spec.Workloads {
		if _, err := newBench(params{workload: w.Name, churnDocs: 2, seed: 1}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}
