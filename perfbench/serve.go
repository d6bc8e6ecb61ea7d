package main

import (
	"fmt"
	"math/rand"

	"staircase"
)

// serve is the query server on one small document with one client:
// parse, rewrite and compile, the result and plan caches, admission and
// JSON framing do the work; the kernels do little. One client, not two:
// requests take about 0.1 ms, and with two clients keeping both cores
// busy, runs of the same code on a shared 2-core host spread by half as
// much again as with one (see README.md, Steadiness).
type serveWorkload struct {
	p       params
	texts   []string // the popular texts, then every new text in draw order
	streams [][]serveOp
	orc     oracle

	doc  *staircase.Document
	http *httpTarget
}

// serveOp is one request: kind, the cache flag and the texts it sends
// (one, or serveBatch for a batch).
type serveOp struct {
	kind    uint8
	noCache bool
	q       [serveBatch]int32
}

const (
	opSingle = iota // POST /query, one text, limit serveLimit
	opBatch         // POST /query, serveBatch texts, limit serveLimit
	opStream        // POST /stream, one text, whole answer
)

const (
	serveDoc     = "auction"
	serveLimit   = 20
	serveBatch   = 8
	servePopular = 256  // texts the Zipf draw ranks
	serveNewRate = 0.02 // share of texts drawn new, never sent before
	serveZipfS   = 1.1
	serveNoCache = 0.1
	serveClients = 1
	// serveCacheBytes holds the popular texts' results; new texts cycle
	// through the rest, so the cache is full, and steady, after warm-up.
	serveCacheBytes = 8 << 20
	// serveOpsPerSec sizes each client's pre-drawn stream above what a
	// client completes per second; a client that runs past the end
	// starts over, by then with its new texts evicted from the plan
	// cache.
	serveOpsPerSec = 8000
)

// newServe draws the texts and the request streams; nothing here is
// timed.
func newServe(p params) *serveWorkload {
	r := rand.New(rand.NewSource(p.seed))
	seen := make(map[string]bool)
	w := &serveWorkload{p: p, orc: oracle{}}
	// Each round of templates takes its literals from its own stratum, so
	// the texts that draw most of the traffic cost about the same from
	// seed to seed; popularity falls as the literal's stratum rises.
	strata := (servePopular + len(serveTemplates) - 1) / len(serveTemplates)
	w.texts = distinctTexts(r, serveTemplates, servePopular, strata, seen)
	popular := int32(len(w.texts))
	n := max(4096, int(p.duration.Seconds()*serveOpsPerSec))
	for c := 0; c < serveClients; c++ {
		rc := rand.New(rand.NewSource(p.seed*131 + int64(c) + 1))
		zipf := rand.NewZipf(rc, serveZipfS, 1, uint64(popular-1))
		text := func() int32 {
			if rc.Float64() < serveNewRate {
				if q := distinctTexts(rc, serveTemplates, 1, 0, seen); len(q) == 1 {
					w.texts = append(w.texts, q[0])
					return int32(len(w.texts) - 1)
				}
			}
			return int32(zipf.Uint64())
		}
		ops := make([]serveOp, n)
		for i := range ops {
			op := &ops[i]
			switch x := rc.Float64(); {
			case x < 0.55:
				op.kind = opSingle
			case x < 0.70:
				op.kind = opBatch
			default:
				op.kind = opStream
			}
			op.noCache = rc.Float64() < serveNoCache
			m := 1
			if op.kind == opBatch {
				m = serveBatch
			}
			for j := 0; j < m; j++ {
				op.q[j] = text()
			}
		}
		w.streams = append(w.streams, ops)
	}
	return w
}

// setup generates the document, adds it to a catalog (building its tag
// and value indexes) and starts the server on a loopback port.
func (w *serveWorkload) setup() error {
	d, err := staircase.GenerateXMark(w.p.serveMB, w.p.seed)
	if err != nil {
		return fmt.Errorf("serve: generate: %w", err)
	}
	cat := staircase.NewCatalog(0)
	if err := cat.Add(serveDoc, d); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	srv := staircase.NewServer(staircase.ServerConfig{Catalog: cat, CacheBytes: serveCacheBytes, ShareScans: true})
	t, err := startHTTP(srv.Handler(), w.p.rec)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	w.doc, w.http = d, t
	return nil
}

func (w *serveWorkload) close() error {
	var err error
	if w.http != nil {
		err = w.http.close()
	}
	w.doc, w.http = nil, nil
	return err
}

func (w *serveWorkload) clients() int { return serveClients }

func (w *serveWorkload) answers() oracle { return w.orc }

func (w *serveWorkload) buildOracle() error {
	for _, q := range w.texts {
		if err := w.orc.addAnswers(serveDoc, w.doc, q, serveLimit); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) do(c, i int, tc tctx) opResult {
	ops := w.streams[c]
	op := &ops[i%len(ops)]
	req := request{Doc: serveDoc, NoCache: op.noCache}
	switch op.kind {
	case opSingle:
		req.Query, req.Limit = w.texts[op.q[0]], serveLimit
		return w.http.query(tc, w.orc, req)
	case opBatch:
		req.Limit = serveLimit
		for _, q := range op.q {
			req.Queries = append(req.Queries, w.texts[q])
		}
		return w.http.query(tc, w.orc, req)
	default:
		req.Query = w.texts[op.q[0]]
		return w.http.stream(tc, w.orc, req)
	}
}

func (w *serveWorkload) tick() { w.http.sampleQueue() }

func (w *serveWorkload) probe() probeInput {
	// The first texts come round-robin from every template.
	return probeInput{name: "serve", pub: w.doc, sizeMB: w.p.serveMB, seed: w.p.seed, queries: w.texts[:min(len(w.texts), probeQueries)]}
}

func (w *serveWorkload) layers(ls *layerSink) error { return w.http.serverLayers(ls) }
