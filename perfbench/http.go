package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// traceHeader carries "<request id>-<parent span id>" from a traced
// client call to the benchmark's server-side middleware.
const traceHeader = "X-Bench-Trace"

// httpTarget is an in-process query server on a loopback listener with
// the client that drives it.
type httpTarget struct {
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client
	rec      *recorder
	queueMax int64 // deepest admission queue seen by sampleQueue
}

// startHTTP serves h on a loopback port. The benchmark's middleware
// records a server.handler span for every traced request.
func startHTTP(h http.Handler, rec *recorder) (*httpTarget, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &httpTarget{
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		rec:    rec,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
	t.srv = &http.Server{Handler: t.middleware(h), ReadHeaderTimeout: 10 * time.Second}
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, nil
}

// close shuts the server down and waits for it to stop.
func (t *httpTarget) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	t.client.CloseIdleConnections()
	if e := <-t.served; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

func (t *httpTarget) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(traceHeader)
		if v == "" {
			next.ServeHTTP(w, r)
			return
		}
		a, b, _ := strings.Cut(v, "-")
		rid, _ := strconv.ParseUint(a, 10, 64)
		parent, _ := strconv.ParseUint(b, 10, 64)
		s := t.rec.begin(rid, parent, "server.handler")
		next.ServeHTTP(w, r)
		t.rec.end(s)
	})
}

// request is the body of POST /query and POST /stream.
type request struct {
	Doc     string   `json:"doc"`
	Query   string   `json:"query,omitempty"`
	Queries []string `json:"queries,omitempty"`
	NoCache bool     `json:"noCache,omitempty"`
	Limit   int      `json:"limit,omitempty"`
}

func (r request) texts() []string {
	if r.Query != "" {
		return append([]string{r.Query}, r.Queries...)
	}
	return r.Queries
}

// bodyPool holds the buffers replies are read into, so reading a reply
// allocates only when a reply outgrows every buffer seen so far.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (t *httpTarget) post(tc tctx, path string, req request) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if tc.rec != nil {
		hr.Header.Set(traceHeader, strconv.FormatUint(tc.rid, 10)+"-"+strconv.FormatUint(tc.parent, 10))
	}
	resp, err := t.client.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		discard(resp)
		return nil, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return resp, nil
}

func discard(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// query sends one POST /query and checks every answer against the
// oracle. A limited query is a first-result operation: its answer is
// the first results.
func (t *httpTarget) query(tc tctx, orc oracle, req request) opResult {
	t0 := time.Now()
	texts := req.texts()
	r := opResult{answers: len(texts)}
	s, inner := tc.child("http.request")
	resp, err := t.post(inner, "/query", req)
	var res [serveBatch]reply
	got := res[:0]
	if err == nil {
		buf := bodyPool.Get().(*bytes.Buffer)
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil {
			got, err = queryReply(buf.Bytes(), got)
		}
		bodyPool.Put(buf)
	}
	tc.end(s)
	if err != nil || len(got) != len(texts) {
		r.failed = r.answers
		return r
	}
	for i, res := range got {
		r.evalNs += res.elapsedNs
		switch {
		case res.failed:
			r.failed++
		case res.count != res.nodes.d.Count || !orc.check(answerKey{req.Doc, texts[i], req.Limit}, res.nodes.d):
			r.failed++
			r.wrong++
		}
	}
	if req.Limit > 0 && len(texts) == 1 {
		r.first = time.Since(t0)
	}
	return r
}

// lineBufs holds the stream scanners' starting buffers.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}

// stream sends one POST /stream and checks the streamed answer; the time
// to its first line is the operation's first-result time.
func (t *httpTarget) stream(tc tctx, orc oracle, req request) opResult {
	t0 := time.Now()
	s, inner := tc.child("http.request")
	defer tc.end(s)
	resp, err := t.post(inner, "/stream", req)
	if err != nil {
		return opResult{answers: 1, failed: 1}
	}
	defer discard(resp)
	buf := lineBufs.Get().(*[]byte)
	defer lineBufs.Put(buf)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(*buf, 16<<20)
	h := newHasher()
	r := opResult{answers: 1}
	var line reply
	for sc.Scan() {
		if r.first == 0 {
			r.first = time.Since(t0)
		}
		if err := streamLine(sc.Bytes(), &line, &h); err != nil || line.failed {
			r.failed = 1
			return r
		}
		if line.done {
			r.evalNs = line.elapsedNs
			if line.count != h.d.Count || !orc.check(answerKey{req.Doc, req.Query, req.Limit}, h.d) {
				r.failed, r.wrong = 1, 1
			}
			return r
		}
	}
	r.failed = 1 // stream ended without its terminal line
	return r
}

func (t *httpTarget) get(path string) (*http.Response, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		discard(resp)
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return resp, nil
}

// metrics reads GET /metrics into a map keyed by metric name without
// the xpathd_ prefix.
func (t *httpTarget) metrics() (map[string]float64, error) {
	resp, err := t.get("/metrics")
	if err != nil {
		return nil, err
	}
	defer discard(resp)
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", sc.Text(), err)
		}
		out[strings.TrimPrefix(name, "xpathd_")] = v
	}
	return out, sc.Err()
}

type docInfo struct {
	Loads     int64 `json:"loads"`
	Evictions int64 `json:"evictions"`
	Queries   int64 `json:"queries"`
}

// docs reads GET /docs.
func (t *httpTarget) docs() ([]docInfo, error) {
	resp, err := t.get("/docs")
	if err != nil {
		return nil, err
	}
	defer discard(resp)
	var body struct {
		Docs []docInfo `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("GET /docs: %w", err)
	}
	return body.Docs, nil
}

// sampleQueue records the admission queue depth. A traced run calls it
// at every window switch, from the goroutine that later reads queueMax.
func (t *httpTarget) sampleQueue() {
	m, err := t.metrics()
	if err != nil {
		return
	}
	t.queueMax = max(t.queueMax, int64(m["worker_queue_depth"]))
}

// serverLayers reports the server, cache, share and catalog counters a
// run left behind, read from /metrics and /docs.
func (t *httpTarget) serverLayers(ls *layerSink) error {
	m, err := t.metrics()
	if err != nil {
		return err
	}
	docs, err := t.docs()
	if err != nil {
		return err
	}
	hits, misses := m["cache_hits_total"], m["cache_misses_total"]
	ls.set("server.result_cache_hit_ratio", ratio(hits, hits+misses))
	ph, pm := m["plan_cache_hits_total"], m["plan_cache_misses_total"]
	ls.set("server.plan_cache_hit_ratio", ratio(ph, ph+pm))
	ls.set("server.shed_total", m["shed_queries_total"])
	ls.set("server.timeouts_total", m["timeout_queries_total"])
	ls.set("server.queue_depth_max", float64(t.queueMax))
	flights, coalesced := m["shared_flights_total"], m["coalesced_queries_total"]
	ls.set("share.coalesced_ratio", ratio(coalesced, flights+coalesced))
	ls.set("share.handoffs", m["pace_car_handoffs_total"])
	var loads, evictions, queries float64
	for _, d := range docs {
		loads += float64(d.Loads)
		evictions += float64(d.Evictions)
		queries += float64(d.Queries)
	}
	ls.set("catalog.hit_ratio", ratio(queries-loads, queries))
	ls.set("catalog.loads_per_1k", 1000*ratio(loads, queries))
	ls.set("catalog.evictions_per_1k", 1000*ratio(evictions, queries))
	return nil
}
