// Command perfbench is the repository benchmark. It runs one of three
// seeded, closed-loop workloads against the staircase library and an
// in-process query server, checks every answer against digests computed
// on a separate evaluation path, and prints its metrics. Build and run
// it from the repository root with
//
//	bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. An untraced run (--trace 0) reports the
// end-to-end metrics; a traced run (--trace 1) the per-layer metrics,
// and writes its spans to <dir>/traces. A human-readable report goes to
// standard error. See README.md in this directory for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// params configures one run. The sizes are fixed by the workloads; tests
// shrink them.
type params struct {
	workload string
	seed     int64
	duration time.Duration
	warmup   time.Duration
	trace    bool
	dir      string
	rec      *recorder

	scanMB, serveMB, churnMB float64
	churnDocs                int
}

// bench is a workload with its set-up, oracle and layer reporting.
type bench interface {
	workload
	// setup builds what the program needs before it can answer: the
	// timed set-up. It is repeated, with close in between.
	setup() error
	close() error
	// buildOracle computes the expected answers on the reference path.
	buildOracle() error
	answers() oracle
	// tick samples the program's gauges; traced runs call it at every
	// window switch.
	tick()
	probe() probeInput
	// layers adds the workload's server, catalog and share counters.
	layers(ls *layerSink) error
}

// A run sets up at least setupMinReps times, and again while its
// set-ups have taken less than setupMinTime in all, up to setupMaxReps;
// setup_s is the median. A quick set-up is thus timed often enough that
// one slow moment on the host does not move the median.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupMinTime = 2 * time.Second
)

func newBench(p params) (bench, error) {
	switch p.workload {
	case "scan":
		return newScan(p), nil
	case "serve":
		return newServe(p), nil
	case "churn":
		return newChurn(p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want scan, serve or churn)", p.workload)
}

func main() {
	p := params{scanMB: 32, serveMB: 1, churnMB: 4, churnDocs: 6, warmup: 2 * time.Second}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&p.workload, "workload", "", "workload: scan, serve or churn")
	fs.Int64Var(&p.seed, "seed", 1, "seed for the generated documents and query streams")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	fs.StringVar(&p.dir, "dir", ".bench_build", "directory for temporary files and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	p.duration = time.Duration(*seconds) * time.Second
	p.trace = *trace == 1
	os.Exit(execute(p, os.Stdout, os.Stderr, nil))
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs one workload and prints its result line. tamper, when
// set, alters the expected answers before the run; tests use it to
// prove a wrong answer fails the run. It returns the exit code: 0, 1
// when any answer was wrong (after printing the result), or 2 when the
// run could not complete (without printing one).
func execute(p params, stdout, stderr io.Writer, tamper func(oracle)) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	p.rec = newRecorder()
	if err := os.MkdirAll(filepath.Join(p.dir, "tmp"), 0o755); err != nil {
		return fail(err)
	}
	b, err := newBench(p)
	if err != nil {
		return fail(err)
	}
	minReps, maxReps := setupMinReps, setupMaxReps
	if p.trace {
		minReps, maxReps = 1, 1 // a traced run reports no setup_s
	}
	var setupS []float64
	var setupTotal float64
	for i := 0; i < minReps || i < maxReps && setupTotal < setupMinTime.Seconds(); i++ {
		if i > 0 {
			if err := b.close(); err != nil {
				return fail(err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		err := b.setup()
		setupS = append(setupS, time.Since(t0).Seconds())
		setupTotal += setupS[i]
		if err != nil {
			b.close()
			return fail(err)
		}
	}
	defer b.close()
	if err := b.buildOracle(); err != nil {
		return fail(err)
	}
	if tamper != nil {
		tamper(b.answers())
	}

	// The warm-up lets caches fill and lazy work finish; the measured
	// run continues each client's stream where it stopped.
	pos := make([]int, b.clients())
	warm := runLoop(b, pos, p.warmup, nil, nil)
	var st loopStats
	var ls *layerSink
	if p.trace {
		st = runLoop(b, pos, p.duration, p.rec, b.tick)
		if ls, err = traceLayers(p, b, st, stderr); err != nil {
			return fail(err)
		}
	} else {
		st = runLoop(b, pos, p.duration, nil, nil)
		ls = endToEnd(st, setupS, stderr)
	}
	if st.ops == 0 {
		return fail(fmt.Errorf("no operation completed in %v", p.duration))
	}

	out := outcome{
		Correct:   warm.wrong+st.wrong == 0,
		Attempted: st.answers,
		Failed:    st.failed,
		Metrics:   ls.metrics(),
	}
	printReport(stderr, p, out, ls.defs)
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %d wrong answers\n", warm.wrong+st.wrong)
		return 1
	}
	return 0
}

// endToEnd computes the untraced run's metrics. The heap is measured
// after a forced GC while the workload is still live.
func endToEnd(st loopStats, setupS []float64, stderr io.Writer) *layerSink {
	ls := newSink(endToEndMetrics)
	ok := st.answers - st.failed
	// Throughput is the median over the run's whole windows, so a burst
	// of load from outside the benchmark moves it less than it would the
	// mean.
	if full := st.windows[:min(len(st.windows), int(st.elapsed/rateWindow))]; len(full) > 0 {
		rates := make([]float64, len(full))
		for i, n := range full {
			rates[i] = float64(n) / rateWindow.Seconds()
		}
		m, _ := median(rates)
		ls.set("throughput_qps", m)
	} else {
		ls.set("throughput_qps", float64(ok)/st.elapsed.Seconds())
	}
	if m, has := median(st.lat); has {
		ls.set("latency_p50_ms", m)
	}
	if t, has := p99(st.lat); has {
		ls.set("latency_p99_ms", t.Value)
		hi, _ := highestTail(st.lat)
		fmt.Fprintf(stderr, "latency tail (ms): %v; highest supported: %v\n", t, hi)
	}
	printDeciles(stderr, "latency_ms", st.lat)
	printDeciles(stderr, "first_result_ms", st.first)
	fmt.Fprintf(stderr, "answers per %v window: %v\n", rateWindow, st.windows)
	if m, has := median(st.first); has {
		ls.set("first_result_p50_ms", m)
	}
	ls.set("success_ratio", ratio(float64(ok), float64(st.answers)))
	ls.set("alloc_kb_per_query", ratio(float64(st.allocBytes)/1024, float64(st.answers)))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	ls.set("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	s, _ := median(setupS)
	ls.set("setup_s", s)
	fmt.Fprintf(stderr, "setup runs (s): %.3f\nerror_rate: %.6f (%d of %d answers failed)\n",
		setupS, ratio(float64(st.failed), float64(st.answers)), st.failed, st.answers)
	return ls
}

// traceLayers computes the traced run's per-layer metrics from its
// spans, the workload's counters and the layer probes, and writes the
// trace.
func traceLayers(p params, b bench, st loopStats, stderr io.Writer) (*layerSink, error) {
	ls := newSink(perLayerMetrics)
	traced := float64(st.tracedAnswers) / st.tracedTime.Seconds()
	untraced := float64(st.untracedAnswers) / st.untracedTime.Seconds()
	ls.set("trace.throughput_qps", traced)
	ls.set("trace.untraced_throughput_qps", untraced)
	ls.set("trace.overhead_share", 1-ratio(traced, untraced))
	ls.set("runtime.gc_cycles_per_1k", 1000*ratio(float64(st.gcCycles), float64(st.answers)))
	ls.set("runtime.gc_pause_ms", ratio(float64(st.gcPauseNs)/1e6, float64(st.gcCycles)))

	// Server-side spans exist only for the workloads that use the server.
	loopSpans, _ := p.rec.snapshot()
	self := selfTimes(loopSpans)
	var handler, overhead []float64
	var handlerNs, requestNs float64
	for _, s := range loopSpans {
		switch s.Name {
		case "server.handler":
			handler = append(handler, float64(s.End-s.Start)/1e3)
			handlerNs += float64(s.End - s.Start)
		case "http.request":
			overhead = append(overhead, float64(self[s.ID])/1e3)
			requestNs += float64(s.End - s.Start)
		}
	}
	if m, ok := median(handler); ok {
		ls.set("server.handler_us", m)
		ls.set("server.eval_share", ratio(float64(st.evalNs), handlerNs))
		// The rest of a request's time is the client, the transport and
		// net/http on both ends.
		ls.set("server.handler_share", ratio(handlerNs, requestNs))
	}
	if m, ok := median(overhead); ok {
		ls.set("http.client_overhead_us", m)
	}
	if err := b.layers(ls); err != nil {
		return nil, err
	}
	if err := probeLayers(b.probe(), p.dir, p.rec, ls); err != nil {
		return nil, err
	}

	spans, dropped := p.rec.snapshot()
	self = selfTimes(spans)
	printSummary(stderr, summarize(spans, self), dropped)
	dir := filepath.Join(p.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", p.workload, p.seed))
	if err := writeTrace(path, spans, self); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "trace: %d spans in %s; traced %.1f vs untraced %.1f answers/s\n", len(spans), path, traced, untraced)
	return ls, nil
}

func printReport(w io.Writer, p params, out outcome, defs []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d: correct=%v attempted=%d failed=%d\n", p.workload, p.seed, out.Correct, out.Attempted, out.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
}

// printDeciles shows the shape of a latency distribution around its
// median.
func printDeciles(w io.Writer, name string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	fmt.Fprintf(w, "%s deciles:", name)
	for p := 10.0; p < 100; p += 10 {
		v, _ := nearestRank(s, p)
		fmt.Fprintf(w, " %.3g", v)
	}
	fmt.Fprintln(w)
}
