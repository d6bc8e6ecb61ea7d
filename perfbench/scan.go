package main

import (
	"fmt"
	"math/rand"
	"time"

	"staircase"
)

// scan is the library on one large document with a single caller: the
// staircase kernels, plan operators and index fragments do the work;
// no server, cache or catalog is involved.
type scanWorkload struct {
	p       params
	queries []string
	ops     []scanOp
	orc     oracle

	doc   *staircase.Document
	plans []*staircase.Plan
}

// scanOp is one operation of the seeded stream: a query run through one
// executor class.
type scanOp struct {
	q     int32
	class uint8
}

// The four executor classes of the scan workload.
const (
	classRun   = iota // prepared Plan.Run
	classDrain        // full Plan.Cursor drain
	classLimit        // Plan.RunLimit(scanLimit)
	classAdhoc        // Document.Query: prepare and run per call
	numClasses
)

const (
	scanLimit     = 10
	scanInstances = 6 // distinct seeded texts per parameterised template
	scanOps       = 1 << 16
)

// scanQueries draws the scan workload's distinct texts: every template
// with up to scanInstances seeded instances. byTemplate lists each
// template's query indexes.
func scanQueries(seed int64) (queries []string, byTemplate [][]int32) {
	r := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	for _, t := range scanTemplates {
		var idx []int32
		for _, q := range distinctTexts(r, []template{t}, scanInstances, scanInstances, seen) {
			idx = append(idx, int32(len(queries)))
			queries = append(queries, q)
		}
		byTemplate = append(byTemplate, idx)
	}
	return queries, byTemplate
}

// scanStream draws the operation stream in blocks that hold every
// (template, executor class) pair once, in seeded order; block b runs
// instance b of each template, cycling. The blocks keep the mix, and so
// the run's cost, the same from seed to seed.
func scanStream(seed int64, byTemplate [][]int32, n int) []scanOp {
	r := rand.New(rand.NewSource(seed + 1))
	ops := make([]scanOp, 0, n)
	for b := 0; len(ops) < n; b++ {
		for _, cell := range r.Perm(len(byTemplate) * numClasses) {
			inst := byTemplate[cell/numClasses]
			ops = append(ops, scanOp{q: inst[b%len(inst)], class: uint8(cell % numClasses)})
		}
	}
	return ops
}

// newScan draws the texts and the operation stream; nothing here is
// timed.
func newScan(p params) *scanWorkload {
	queries, byTemplate := scanQueries(p.seed)
	return &scanWorkload{p: p, queries: queries, ops: scanStream(p.seed, byTemplate, scanOps), orc: oracle{}}
}

// setup generates the document and prepares every query. Preparing
// builds the tag index and, at the first value predicate, the value
// index; one run of each plan finishes any lazy work left before timing
// starts.
func (w *scanWorkload) setup() error {
	d, err := staircase.GenerateXMark(w.p.scanMB, w.p.seed)
	if err != nil {
		return fmt.Errorf("scan: generate: %w", err)
	}
	plans := make([]*staircase.Plan, len(w.queries))
	for i, q := range w.queries {
		if plans[i], err = d.Prepare(q, nil); err != nil {
			return fmt.Errorf("scan: prepare %q: %w", q, err)
		}
		if _, err := plans[i].Run(); err != nil {
			return fmt.Errorf("scan: run %q: %w", q, err)
		}
	}
	w.doc, w.plans = d, plans
	return nil
}

func (w *scanWorkload) clients() int { return 1 }

func (w *scanWorkload) close() error {
	w.doc, w.plans = nil, nil
	return nil
}

func (w *scanWorkload) answers() oracle { return w.orc }

func (w *scanWorkload) buildOracle() error {
	for _, q := range w.queries {
		if err := w.orc.addAnswers("scan", w.doc, q, scanLimit); err != nil {
			return err
		}
	}
	return nil
}

func (w *scanWorkload) do(_, i int, tc tctx) opResult {
	op := w.ops[i%len(w.ops)]
	q, pl := w.queries[op.q], w.plans[op.q]
	switch op.class {
	case classRun:
		s, _ := tc.child("plan.run")
		res, err := pl.Run()
		tc.end(s)
		return w.check(q, 0, res, err)
	case classDrain:
		return w.drain(q, pl, tc)
	case classLimit:
		t0 := time.Now()
		s, _ := tc.child("plan.run_limit")
		res, err := pl.RunLimit(scanLimit)
		tc.end(s)
		r := w.check(q, scanLimit, res, err)
		r.first = time.Since(t0)
		return r
	default:
		s, _ := tc.child("engine.query")
		res, err := w.doc.Query(q, nil)
		tc.end(s)
		return w.check(q, 0, res, err)
	}
}

// drain pulls the whole answer through a cursor, one span per batch.
func (w *scanWorkload) drain(q string, pl *staircase.Plan, tc tctx) opResult {
	cur, err := pl.Cursor()
	if err != nil {
		return opResult{answers: 1, failed: 1}
	}
	defer cur.Close()
	h := newHasher()
	for {
		s, _ := tc.child("plan.cursor_next")
		b, err := cur.Next()
		tc.end(s)
		if err != nil {
			return opResult{answers: 1, failed: 1}
		}
		if b == nil {
			break
		}
		h.add(b)
	}
	return verdict(w.orc.check(answerKey{"scan", q, 0}, h.d))
}

func (w *scanWorkload) check(q string, limit int, res *staircase.Result, err error) opResult {
	if err != nil {
		return opResult{answers: 1, failed: 1}
	}
	return verdict(w.orc.check(answerKey{"scan", q, limit}, digestOf(res.Nodes)))
}

// verdict is the result of one answer that came back: right or wrong.
func verdict(ok bool) opResult {
	if ok {
		return opResult{answers: 1}
	}
	return opResult{answers: 1, failed: 1, wrong: 1}
}

func (w *scanWorkload) probe() probeInput {
	return probeInput{name: "scan", pub: w.doc, sizeMB: w.p.scanMB, seed: w.p.seed, queries: w.queries}
}

// The scan workload uses no server, catalog or shared scans: it has no
// queue to sample and no counters of theirs to report.
func (w *scanWorkload) tick()                   {}
func (w *scanWorkload) layers(*layerSink) error { return nil }
