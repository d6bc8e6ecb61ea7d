package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"staircase"
	"staircase/internal/doc"
	"staircase/internal/xmark"
)

// churn is the query server over more documents than its catalog keeps
// resident, with two clients and mostly cold queries: catalog loads
// (doc.ReadBinary of SCJ2 files with their index sections), evictions
// and cold execution do the work, and loading sits beside the reads.
type churnWorkload struct {
	p       params
	dir     string
	texts   [][]string // per document
	streams [][]churnOp
	orc     oracle

	http *httpTarget
}

type churnOp struct {
	doc, q  uint8
	stream  bool
	noCache bool
}

const (
	churnTexts   = 54  // six per template: one per stratum of its literal or tag pair
	churnZipfS   = 2.5 // document popularity
	churnBlock   = 64  // operations per stratified block
	churnCold    = 58  // operations per block that bypass the result cache (90%)
	churnStreams = 58  // operations per block that stream the whole answer (90%)
	churnClients = 2
	churnOps     = 1 << 15
)

func churnName(i int) string { return fmt.Sprintf("doc%d", i) }

// churnSeed is the generator seed of document i.
func churnSeed(seed int64, i int) int64 { return seed*100 + int64(i) }

// newChurn draws the per-document texts and the request streams; nothing
// here is timed.
func newChurn(p params) *churnWorkload {
	r := rand.New(rand.NewSource(p.seed))
	w := &churnWorkload{p: p, orc: oracle{}, dir: filepath.Join(p.dir, "tmp", fmt.Sprintf("churn-%d", os.Getpid()))}
	for i := 0; i < p.churnDocs; i++ {
		w.texts = append(w.texts, distinctTexts(r, serveTemplates, churnTexts, churnTexts/len(serveTemplates), map[string]bool{}))
	}
	for c := 0; c < churnClients; c++ {
		rc := rand.New(rand.NewSource(p.seed*131 + int64(c) + 1))
		ops := make([]churnOp, 0, churnOps)
		for len(ops) < churnOps {
			docs := zipfBlock(rc, churnBlock, p.churnDocs, churnZipfS)
			kinds, cache := rc.Perm(churnBlock), rc.Perm(churnBlock)
			for i, d := range docs {
				ops = append(ops, churnOp{
					doc:     uint8(d),
					q:       uint8(rc.Intn(len(w.texts[d]))),
					stream:  kinds[i] < churnStreams,
					noCache: cache[i] < churnCold,
				})
			}
		}
		w.streams = append(w.streams, ops)
	}
	return w
}

// setup generates the documents, writes each as an SCJ2 file with its
// tag and value index sections, registers the files in a catalog whose
// budget holds about half of them, and starts the server.
func (w *churnWorkload) setup() error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	var resident int64
	var paths []string
	for i := 0; i < w.p.churnDocs; i++ {
		d, err := xmark.Generate(xmark.Config{SizeMB: w.p.churnMB, Seed: churnSeed(w.p.seed, i), KeepValues: true})
		if err != nil {
			return fmt.Errorf("churn: generate: %w", err)
		}
		path := filepath.Join(w.dir, churnName(i)+".scj")
		if err := writeBinaryFile(path, d); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		// Writing built both indexes; this is what the catalog charges.
		resident += d.EncodedBytes() + d.IndexBytes() + d.ValueIndexBytes()
		paths = append(paths, path)
	}
	// The budget holds half of the documents, with half a document to
	// spare for the spread of their sizes.
	keep := float64(w.p.churnDocs/2) + 0.5
	cat := staircase.NewCatalog(int64(keep * float64(resident) / float64(w.p.churnDocs)))
	for i, path := range paths {
		if err := cat.Register(churnName(i), path); err != nil {
			return fmt.Errorf("churn: %w", err)
		}
	}
	srv := staircase.NewServer(staircase.ServerConfig{Catalog: cat, CacheBytes: 64 << 20, ShareScans: true})
	t, err := startHTTP(srv.Handler(), w.p.rec)
	if err != nil {
		return fmt.Errorf("churn: %w", err)
	}
	w.http = t
	return nil
}

// writeBinaryFile writes d as an SCJ2 file with its index sections.
func writeBinaryFile(path string, d *doc.Document) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := d.WriteBinary(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (w *churnWorkload) close() error {
	var err error
	if w.http != nil {
		err = w.http.close()
		w.http = nil
	}
	if e := os.RemoveAll(w.dir); e != nil && err == nil {
		err = e
	}
	return err
}

func (w *churnWorkload) clients() int { return churnClients }

func (w *churnWorkload) answers() oracle { return w.orc }

// buildOracle generates every document again and answers its texts on
// the reference path: the expected answers never pass through the SCJ2
// files or the catalog the server loads them from.
func (w *churnWorkload) buildOracle() error {
	for i, texts := range w.texts {
		d, err := staircase.GenerateXMark(w.p.churnMB, churnSeed(w.p.seed, i))
		if err != nil {
			return fmt.Errorf("churn: generate: %w", err)
		}
		for _, q := range texts {
			if err := w.orc.addAnswers(churnName(i), d, q, serveLimit); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *churnWorkload) do(c, i int, tc tctx) opResult {
	ops := w.streams[c]
	op := ops[i%len(ops)]
	req := request{Doc: churnName(int(op.doc)), Query: w.texts[op.doc][op.q], NoCache: op.noCache}
	if op.stream {
		return w.http.stream(tc, w.orc, req)
	}
	req.Limit = serveLimit
	return w.http.query(tc, w.orc, req)
}

func (w *churnWorkload) tick() { w.http.sampleQueue() }

// probe runs the layer probes on the first document, generated afresh.
func (w *churnWorkload) probe() probeInput {
	// The first texts come round-robin from every template.
	return probeInput{name: "churn", sizeMB: w.p.churnMB, seed: churnSeed(w.p.seed, 0), queries: w.texts[0][:min(len(w.texts[0]), probeQueries)]}
}

func (w *churnWorkload) layers(ls *layerSink) error { return w.http.serverLayers(ls) }
