package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"staircase"
	"staircase/internal/catalog"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/index"
	"staircase/internal/xmark"
	"staircase/internal/xpath"
)

// metricDef names one reported metric and its unit; BENCHMARK.json
// lists the same names and units.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, reported by every
// untraced run.
var endToEndMetrics = []metricDef{
	{"throughput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"first_result_p50_ms", "ms"},
	{"success_ratio", "ratio"},
	{"alloc_kb_per_query", "KiB"},
	{"heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics are single-layer measurements, reported by every
// traced run. A layer the workload does not exercise reports 0.
var perLayerMetrics = []metricDef{
	{"core.ns_per_scanned.desc", "ns"},
	{"core.ns_per_scanned.anc", "ns"},
	{"core.ns_per_scanned.fol", "ns"},
	{"core.ns_per_scanned.prec", "ns"},
	{"core.scanned_per_result", "ratio"},
	{"core.skipped_share", "ratio"},
	{"core.copied_share", "ratio"},
	{"plan.run_ms", "ms"},
	{"plan.drain_over_run", "ratio"},
	{"plan.first_batch_ms", "ms"},
	{"xpath.parse_us", "us"},
	{"engine.prepare_us.structural", "us"},
	{"engine.prepare_us.value", "us"},
	{"engine.prepare_share", "ratio"},
	{"index.build_ms", "ms"},
	{"vindex.build_ms", "ms"},
	{"xmark.generate_ms_per_mb", "ms/MB"},
	{"doc.read_binary_ms_per_mb", "ms/MB"},
	{"doc.resident_mb", "MiB"},
	{"catalog.hit_ratio", "ratio"},
	{"catalog.loads_per_1k", "count"},
	{"catalog.evictions_per_1k", "count"},
	{"catalog.cold_open_ms", "ms"},
	{"server.handler_us", "us"},
	{"http.client_overhead_us", "us"},
	{"server.handler_share", "ratio"},
	{"server.eval_share", "ratio"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.shed_total", "count"},
	{"server.timeouts_total", "count"},
	{"server.queue_depth_max", "count"},
	{"share.coalesced_ratio", "ratio"},
	{"share.handoffs", "count"},
	{"runtime.gc_cycles_per_1k", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.throughput_qps", "1/s"},
	{"trace.untraced_throughput_qps", "1/s"},
	{"trace.overhead_share", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerSink collects the metrics of one run under their declared units.
type layerSink struct {
	defs []metricDef
	m    map[string]metric
}

func newSink(defs []metricDef) *layerSink {
	return &layerSink{defs: defs, m: make(map[string]metric, len(defs))}
}

func (ls *layerSink) set(name string, v float64) {
	for _, d := range ls.defs {
		if d.name == name {
			ls.m[name] = metric{v, d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// metrics returns every declared metric, 0 for any left unset.
func (ls *layerSink) metrics() map[string]metric {
	for _, d := range ls.defs {
		if _, ok := ls.m[d.name]; !ok {
			ls.m[d.name] = metric{0, d.unit}
		}
	}
	return ls.m
}

// probeInput is what the layer probes run on: a workload's document
// (regenerated from its XMark seed where the workload keeps no public
// handle on it) and its queries.
type probeInput struct {
	name    string
	pub     *staircase.Document
	sizeMB  float64
	seed    int64
	queries []string
}

// The paper's Table 1 queries.
const (
	queryQ1 = "/descendant::profile/descendant::education"
	queryQ2 = "/descendant::increase/ancestor::bidder"
)

// table1Counts sums the staircase join counters of Q1 and Q2 — the
// paper's Table 1 accounting of nodes scanned, copied and skipped. On
// one document they repeat exactly.
type table1Counts struct{ Scanned, Copied, Skipped, Result int64 }

// table1 runs Q1 and Q2 with name-test pushdown off, so each step is
// the paper's staircase join over the whole pre/post plane, with
// estimation-based skipping, and its counters are the paper's.
func table1(d *staircase.Document) (table1Counts, error) {
	var c table1Counts
	for _, q := range []string{queryQ1, queryQ2} {
		res, err := d.Query(q, &staircase.Options{Pushdown: staircase.PushNever})
		if err != nil {
			return c, fmt.Errorf("table 1: %w", err)
		}
		for _, s := range res.Steps {
			c.Scanned += s.Core.Scanned
			c.Copied += s.Core.Copied
			c.Skipped += s.Core.Skipped
			c.Result += s.Core.Result
		}
	}
	return c, nil
}

// probeLayers times calls into each layer's public functions on the
// workload's document, recording a span per call.
func probeLayers(in probeInput, dir string, rec *recorder, ls *layerSink) error {
	pub := in.pub
	if pub == nil {
		var err error
		if pub, err = staircase.GenerateXMark(in.sizeMB, in.seed); err != nil {
			return fmt.Errorf("probe: generate: %w", err)
		}
	}
	c, err := table1(pub)
	if err != nil {
		return err
	}
	ls.set("core.scanned_per_result", ratio(float64(c.Scanned), float64(c.Result)))
	ls.set("core.copied_share", ratio(float64(c.Copied), float64(c.Scanned)))
	ls.set("core.skipped_share", ratio(float64(c.Skipped), float64(c.Scanned+c.Skipped)))
	if err := probePlans(pub, in.queries, rec, ls); err != nil {
		return err
	}
	return probeStorage(in, dir, rec, ls)
}

// probeQueries caps the queries the plan probes time.
const probeQueries = 24

// opCtx opens a root span for one probe operation.
func opCtx(rec *recorder) (tctx, span) {
	rid := rec.newID()
	root := rec.begin(rid, 0, "op")
	return tctx{rec, rid, root.ID}, root
}

// timed calls f reps times, each under a span of the given name, and
// returns the median time in ms.
func timed(tc tctx, name string, reps int, f func() error) (float64, error) {
	ms := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		s, _ := tc.child(name)
		t0 := time.Now()
		err := f()
		ms = append(ms, float64(time.Since(t0))/1e6)
		tc.end(s)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
	}
	m, _ := median(ms)
	return m, nil
}

// probePlans times parse, prepare, Run, cursor drain, first batch and
// ad-hoc Query on the same queries.
func probePlans(d *staircase.Document, queries []string, rec *recorder, ls *layerSink) error {
	step := max(1, (len(queries)+probeQueries-1)/probeQueries)
	var parse, prepS, prepV, run, first []float64
	var runSum, drainSum, prepSum, adhocSum float64
	for i := 0; i < len(queries); i += step {
		q := queries[i]
		tc, root := opCtx(rec)
		p, err := timed(tc, "xpath.parse", 32, func() error { _, err := xpath.ParseQuery(q); return err })
		if err != nil {
			return err
		}
		var pl *staircase.Plan
		prep, err := timed(tc, "engine.prepare", 3, func() (err error) { pl, err = d.Prepare(q, nil); return err })
		if err != nil {
			return err
		}
		r, err := timed(tc, "plan.run", 3, func() error { _, err := pl.Run(); return err })
		if err != nil {
			return err
		}
		var firsts []float64
		dr, err := timed(tc, "plan.cursor", 3, func() error {
			t0 := time.Now()
			cur, err := pl.Cursor()
			if err != nil {
				return err
			}
			defer cur.Close()
			for n := 0; ; n++ {
				s, _ := tc.child("plan.cursor_next")
				b, err := cur.Next()
				tc.end(s)
				if n == 0 {
					firsts = append(firsts, float64(time.Since(t0))/1e6)
				}
				if err != nil || b == nil {
					return err
				}
			}
		})
		if err != nil {
			return err
		}
		adhoc, err := timed(tc, "engine.query", 3, func() error { _, err := d.Query(q, nil); return err })
		if err != nil {
			return err
		}
		rec.end(root)

		parse = append(parse, p*1e3)
		if isValueQuery(q) {
			prepV = append(prepV, prep*1e3)
		} else {
			prepS = append(prepS, prep*1e3)
		}
		run = append(run, r)
		f, _ := median(firsts)
		first = append(first, f)
		runSum += r
		drainSum += dr
		prepSum += prep
		adhocSum += adhoc
	}
	set := func(name string, xs []float64) {
		if m, ok := median(xs); ok {
			ls.set(name, m)
		}
	}
	set("xpath.parse_us", parse)
	set("engine.prepare_us.structural", prepS)
	set("engine.prepare_us.value", prepV)
	set("plan.first_batch_ms", first)
	ls.set("plan.run_ms", sum(run)/float64(max(1, len(run))))
	ls.set("plan.drain_over_run", ratio(drainSum, runSum))
	ls.set("engine.prepare_share", ratio(prepSum, adhocSum))
	return nil
}

// probeStorage times document generation, index and value-index builds,
// SCJ2 decoding and a cold catalog open, and the staircase kernels, on
// an internal copy of the workload's document.
func probeStorage(in probeInput, dir string, rec *recorder, ls *layerSink) error {
	tc, root := opCtx(rec)
	defer rec.end(root)
	// Small documents take a few repetitions; the 32 MB one takes one
	// where a repetition costs seconds.
	reps := min(5, max(1, int(8/in.sizeMB)))
	var d *doc.Document
	gen, err := timed(tc, "xmark.generate", reps, func() (err error) {
		d, err = xmark.Generate(xmark.Config{SizeMB: in.sizeMB, Seed: in.seed, KeepValues: true})
		return err
	})
	if err != nil {
		return err
	}
	ls.set("xmark.generate_ms_per_mb", gen/in.sizeMB)
	ib, err := timed(tc, "index.build", 5, func() error {
		index.Build(d.KindSlice(), d.NameSlice(), d.Names().Len(), doc.NumKinds, doc.Elem)
		return nil
	})
	if err != nil {
		return err
	}
	ls.set("index.build_ms", ib)
	vb, err := timed(tc, "vindex.build", reps, func() error { d.RebuildValueIndex(); return nil })
	if err != nil {
		return err
	}
	ls.set("vindex.build_ms", vb)

	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil { // attaches both indexes first
		return fmt.Errorf("probe: write binary: %w", err)
	}
	ls.set("doc.resident_mb", float64(d.EncodedBytes()+d.IndexBytes()+d.ValueIndexBytes())/(1<<20))
	rb, err := timed(tc, "doc.read_binary", 3, func() error {
		_, err := doc.ReadBinary(bytes.NewReader(buf.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	ls.set("doc.read_binary_ms_per_mb", rb/(float64(buf.Len())/(1<<20)))

	path := filepath.Join(dir, "tmp", fmt.Sprintf("probe-%d.scj", os.Getpid()))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer os.Remove(path)
	buf = bytes.Buffer{}
	co, err := timed(tc, "catalog.open", 3, func() error {
		c := catalog.New(0)
		if err := c.Register(in.name, path, catalog.FormatAuto); err != nil {
			return err
		}
		h, err := c.Open(in.name)
		if err != nil {
			return err
		}
		h.Close()
		return nil
	})
	if err != nil {
		return err
	}
	ls.set("catalog.cold_open_ms", co)
	return probeKernels(d, tc, ls)
}

// probeKernels times the four partitioning-axis staircase joins on
// tag-fragment contexts and divides by the nodes each scanned.
func probeKernels(d *doc.Document, tc tctx, ls *layerSink) error {
	tag := func(name string) []int32 {
		id, ok := d.Names().Lookup(name)
		if !ok {
			return nil
		}
		return d.TagIndex().Tag(id)
	}
	kernels := []struct {
		axis string
		ctx  []int32
		join func(*doc.Document, []int32, *core.Options) []int32
	}{
		{"desc", tag("profile"), core.DescendantJoin},
		{"anc", tag("increase"), core.AncestorJoin},
		{"fol", tag("bidder"), core.FollowingJoin},
		{"prec", tag("increase"), core.PrecedingJoin},
	}
	for _, k := range kernels {
		var st core.Stats
		ms, err := timed(tc, "core.join."+k.axis, 5, func() error {
			st = core.Stats{}
			opts := core.DefaultOptions()
			opts.Stats = &st
			k.join(d, k.ctx, opts)
			return nil
		})
		if err != nil {
			return err
		}
		ls.set("core.ns_per_scanned."+k.axis, ratio(ms*1e6, float64(st.Scanned)))
	}
	return nil
}
