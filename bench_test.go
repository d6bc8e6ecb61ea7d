// Package staircase_test hosts the testing.B benchmarks that regenerate
// the paper's tables and figures (one benchmark family per artifact;
// see DESIGN.md for the experiment index and EXPERIMENTS.md for
// recorded results). cmd/benchrun prints the same quantities as
// formatted tables.
//
// Benchmarks report, besides ns/op, the work counters the paper plots
// (nodes scanned, duplicates, keys touched) via b.ReportMetric.
package staircase_test

import (
	"fmt"
	"sync"
	"testing"

	"staircase/bench"
	"staircase/internal/axis"
	"staircase/internal/baseline"
	"staircase/internal/bat"
	"staircase/internal/core"
	"staircase/internal/doc"
	"staircase/internal/engine"
	"staircase/internal/index"
)

// benchSizes is the document sweep for benchmarks (MB equivalents).
// The paper sweeps 1.1–1111 MB; keep the benchmark suite laptop-fast
// and use cmd/benchrun -sizes for bigger sweeps.
var benchSizes = []float64{0.5, 2}

var (
	corpus   = bench.NewCorpus()
	ctxMu    sync.Mutex
	ctxCache = map[float64]benchCtx{}
)

type benchCtx struct {
	d         *doc.Document
	profiles  []int32
	increases []int32
	eng       *engine.Engine
}

func getCtx(b *testing.B, mb float64) benchCtx {
	b.Helper()
	ctxMu.Lock()
	defer ctxMu.Unlock()
	if c, ok := ctxCache[mb]; ok {
		return c
	}
	d := corpus.Doc(mb)
	e := engine.New(d)
	prof, err := e.EvalString("/descendant::profile", nil)
	if err != nil {
		b.Fatal(err)
	}
	inc, err := e.EvalString("/descendant::increase", nil)
	if err != nil {
		b.Fatal(err)
	}
	c := benchCtx{d: d, profiles: prof.Nodes, increases: inc.Nodes, eng: e}
	ctxCache[mb] = c
	return c
}

func forSizes(b *testing.B, f func(b *testing.B, c benchCtx)) {
	for _, mb := range benchSizes {
		b.Run(fmt.Sprintf("%gMB", mb), func(b *testing.B) {
			c := getCtx(b, mb)
			f(b, c)
		})
	}
}

// --- Table 1: full query evaluation ----------------------------------------

func BenchmarkTable1Q1(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			r, err := c.eng.EvalString(bench.Q1, nil)
			if err != nil {
				b.Fatal(err)
			}
			_ = r
		}
	})
}

func BenchmarkTable1Q2(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q2, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 3: the SQL region-query plan ------------------------------------

func BenchmarkFig3SQLPlan(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		sqlEng := baseline.NewSQLEngine(c.d)
		ctx := []int32{c.increases[0]}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := sqlEng.Step(axis.Following, ctx, baseline.SQLOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sqlEng.Step(axis.Descendant, f, baseline.SQLOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sqlEng.Stats.KeysScanned)/float64(b.N), "keys/op")
	})
}

func BenchmarkFig3Staircase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		ctx := []int32{c.increases[0]}
		for i := 0; i < b.N; i++ {
			f := core.FollowingJoin(c.d, ctx, nil)
			core.DescendantJoin(c.d, f, nil)
		}
	})
}

// --- Figure 11 (a): duplicates (Q2 ancestor step) ---------------------------

func BenchmarkFig11aNaive(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st baseline.NaiveStats
		for i := 0; i < b.N; i++ {
			st = baseline.NaiveStats{}
			baseline.NaiveJoin(c.d, axis.Ancestor, c.increases, &st)
		}
		b.ReportMetric(float64(st.Duplicates), "dups/op")
	})
}

func BenchmarkFig11aStaircase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			core.AncestorJoin(c.d, c.increases, nil)
		}
	})
}

// --- Figure 11 (b): Q2 staircase scaling ------------------------------------

func BenchmarkFig11bStaircaseQ2(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		opts := &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever}
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q2, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figures 11 (c)/(d): skipping variants (Q1 step 2) ----------------------

func benchVariant(b *testing.B, v core.Variant) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Stats{}
			core.DescendantJoin(c.d, c.profiles, &core.Options{Variant: v, Stats: &st})
		}
		b.ReportMetric(float64(st.Scanned), "scanned/op")
		b.ReportMetric(float64(st.Skipped), "skipped/op")
	})
}

func BenchmarkFig11cdNoSkip(b *testing.B)       { benchVariant(b, core.NoSkip) }
func BenchmarkFig11cdSkip(b *testing.B)         { benchVariant(b, core.Skip) }
func BenchmarkFig11cdSkipEstimate(b *testing.B) { benchVariant(b, core.SkipEstimate) }

// --- Figures 11 (e)/(f): engine comparison ----------------------------------

func benchEngineQuery(b *testing.B, query string, opts *engine.Options) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(query, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig11eQ1Staircase(b *testing.B) {
	benchEngineQuery(b, bench.Q1, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever})
}

func BenchmarkFig11eQ1EarlyNametest(b *testing.B) {
	benchEngineQuery(b, bench.Q1, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushAlways})
}

// benchSQLPlan times the tree-unaware SQL plan of Figure 3 on a paper
// query, composed from internal/baseline steps (index build excluded).
func benchSQLPlan(b *testing.B, query string) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		sqlEng := baseline.NewSQLEngine(c.d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bench.SQLPlan(sqlEng, c.d, query, baseline.SQLOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig11eQ1SQL(b *testing.B) { benchSQLPlan(b, bench.Q1) }

func BenchmarkFig11fQ2Staircase(b *testing.B) {
	benchEngineQuery(b, bench.Q2, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever})
}

func BenchmarkFig11fQ2EarlyNametest(b *testing.B) {
	benchEngineQuery(b, bench.Q2, &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushAlways})
}

func BenchmarkFig11fQ2SQL(b *testing.B) { benchSQLPlan(b, bench.Q2) }

// --- §2.1: Equation (1) window on the SQL plan -------------------------------

func benchSQLWindow(b *testing.B, useWindow bool) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		sqlEng := baseline.NewSQLEngine(c.d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sqlEng.Step(axis.Descendant, c.profiles,
				baseline.SQLOptions{UseWindow: useWindow}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sqlEng.Stats.KeysScanned)/float64(b.N), "keys/op")
	})
}

func BenchmarkSQLWindowOff(b *testing.B) { benchSQLWindow(b, false) }
func BenchmarkSQLWindowOn(b *testing.B)  { benchSQLWindow(b, true) }

// --- §6 extensions -----------------------------------------------------------

func BenchmarkFragmentationQ1(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		c.d.TagIndex() // build the fragments outside the timed loop
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bench.TagPath(c.d, bench.BaselineSteps[bench.Q1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchParallelJoin times the partition-parallel staircase join against
// the serial join on one axis: the "serial" sub-benchmark is the
// baseline, "workers=N" the parallel runs. On a multi-core host the
// descendant-axis family shows the §3.2/§6 speedup (the partitions scan
// disjoint document regions, so the join scales with cores until memory
// bandwidth saturates); expect ≥1.5x with 4+ workers.
func benchParallelJoin(b *testing.B, a axis.Axis, context func(benchCtx) []int32) {
	c := getCtx(b, benchSizes[len(benchSizes)-1])
	ctx := context(c)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Join(c.d, a, ctx, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ParallelJoin(c.d, a, ctx, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelDescendant(b *testing.B) {
	benchParallelJoin(b, axis.Descendant, func(c benchCtx) []int32 { return c.profiles })
}

func BenchmarkParallelAncestor(b *testing.B) {
	benchParallelJoin(b, axis.Ancestor, func(c benchCtx) []int32 { return c.increases })
}

func BenchmarkParallelFollowing(b *testing.B) {
	benchParallelJoin(b, axis.Following, func(c benchCtx) []int32 { return c.increases })
}

func BenchmarkParallelPreceding(b *testing.B) {
	benchParallelJoin(b, axis.Preceding, func(c benchCtx) []int32 { return c.increases })
}

// BenchmarkParallelEngineQ1 measures end-to-end query evaluation with
// the engine's Parallelism option (cost model included), serial vs
// parallel, on the descendant-heavy Q1.
func BenchmarkParallelEngineQ1(b *testing.B) {
	for _, par := range []int{0, 4} {
		name := "serial"
		if par > 0 {
			name = fmt.Sprintf("parallelism=%d", par)
		}
		b.Run(name, func(b *testing.B) {
			c := getCtx(b, benchSizes[len(benchSizes)-1])
			opts := &engine.Options{Strategy: engine.Staircase, Pushdown: engine.PushNever, Parallelism: par}
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.EvalString(bench.Q1, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- tag/kind index: zero-rescan pushdown ------------------------------------

// BenchmarkEnginePushdownWarm measures Q1 with name-test pushdown
// served by the shared per-document index (the steady state every
// query after document load sees).
func BenchmarkEnginePushdownWarm(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		c.d.TagIndex() // warm outside the timed loop
		opts := &engine.Options{Pushdown: engine.PushAlways}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q1, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePushdownCold measures the rescan baseline: every
// pushed step rebuilds its tag fragment with an O(n) name-column scan,
// which is what each cold engine (per doc load, per xpathd reload)
// used to pay before the index became a shared document structure.
func BenchmarkEnginePushdownCold(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		opts := &engine.Options{Pushdown: engine.PushAlways, NoIndex: true}
		for i := 0; i < b.N; i++ {
			if _, err := c.eng.EvalString(bench.Q1, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexBuild measures the one-off O(n) index construction the
// warm path amortises (also the in-memory cost of loading a v1/SCJ1
// file, which carries no index section).
// BenchmarkPlanCompile measures the plan pipeline alone — parse,
// logical build, rewrite, physical compilation for Q1, no execution —
// the per-request planner cost the server's caches amortise.
func BenchmarkPlanCompile(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			cq, err := engine.Compile(bench.Q1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.eng.Prepare(cq, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkIndexBuild(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		for i := 0; i < b.N; i++ {
			ix := index.Build(c.d.KindSlice(), c.d.NameSlice(), c.d.Names().Len(), doc.NumKinds, doc.Elem)
			if ix.Entries() != int64(c.d.Size()) {
				b.Fatal("incomplete index")
			}
		}
		b.ReportMetric(float64(c.d.Size())/float64(b.Elapsed().Nanoseconds()/int64(b.N))*1000, "Mnodes/s")
	})
}

// --- §4.2 ablation: copy phase vs scan phase ---------------------------------

func BenchmarkCopyVsScanCopyPhase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		root := []int32{c.d.Root()}
		o := &core.Options{Variant: core.SkipEstimate, KeepAttributes: true}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, root, o)
		}
	})
}

func BenchmarkCopyVsScanScanPhase(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		root := []int32{c.d.Root()}
		o := &core.Options{Variant: core.NoSkip, KeepAttributes: true}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, root, o)
		}
	})
}

// --- §5: MPMGJN comparison ----------------------------------------------------

func BenchmarkMPMGJNAncestor(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st baseline.MPMGJNStats
		for i := 0; i < b.N; i++ {
			st = baseline.MPMGJNStats{}
			baseline.MPMGJNAncestor(c.d, c.increases, &st)
		}
		b.ReportMetric(float64(st.Touched), "touched/op")
	})
}

func BenchmarkIndexedStructuralJoin(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		tree := bench.NewPrePostTree(c.d)
		var st baseline.IndexJoinStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st = baseline.IndexJoinStats{}
			baseline.IndexedDescendantJoin(c.d, tree, c.profiles, &st)
		}
		b.ReportMetric(float64(st.Touched), "touched/op")
		b.ReportMetric(float64(st.Probes), "probes/op")
	})
}

func BenchmarkStaircaseAncestorVsMPMGJN(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Stats{}
			core.AncestorJoin(c.d, c.increases, &core.Options{Variant: core.Skip, Stats: &st})
		}
		b.ReportMetric(float64(st.Scanned), "touched/op")
	})
}

// --- design-choice ablations ---------------------------------------------------

// BenchmarkPruneOnTheFly compares pruning as a pre-pass against on-the-
// fly pruning inside the partition loop (§3.2).
func BenchmarkPrunePrePass(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		o := &core.Options{Variant: core.SkipEstimate}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, c.increases, o)
		}
	})
}

func BenchmarkPruneOnTheFly(b *testing.B) {
	forSizes(b, func(b *testing.B, c benchCtx) {
		o := &core.Options{Variant: core.SkipEstimate, PruneInline: true}
		for i := 0; i < b.N; i++ {
			core.DescendantJoin(c.d, c.increases, o)
		}
	})
}

// BenchmarkVoidColumn measures the positional (void head) fetch join
// against the hash join a materialised head needs (§4.1's storage
// claim).
func BenchmarkVoidColumnFetchJoin(b *testing.B) {
	left, rightVoid, rightMat := voidBenchBATs()
	b.Run("void", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			left.Join(rightVoid)
		}
	})
	b.Run("materialised", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			left.Join(rightMat)
		}
	})
}

func voidBenchBATs() (left, rightVoid, rightMat bat.BAT) {
	const n = 100_000
	refs := make([]int32, n)
	tails := make([]int32, n)
	for i := range refs {
		refs[i] = int32((i * 7919) % n)
		tails[i] = int32(i)
	}
	left = bat.NewDense(refs)
	rightVoid = bat.New(bat.NewVoid(0, n), bat.NewInt(tails))
	rightMat = bat.New(bat.NewVoid(0, n).Materialize(), bat.NewInt(tails))
	return
}
