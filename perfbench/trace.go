package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no tracing). Spans of one
// operation share its request id; Parent is 0 for the operation's root.
type span struct {
	ID     uint64
	Parent uint64
	RID    uint64
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// recorder keeps spans in memory and writes them out when the run ends.
// The closed loop traces an operation only while on is set; an
// untraced operation carries a nil recorder and records nothing.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int
}

// maxSpans bounds the recorder's memory; spans past it are counted in
// dropped instead of kept.
const maxSpans = 1 << 21

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active reports whether new operations are traced.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// newID returns a fresh id, used for spans and request ids alike.
func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// begin opens a span.
func (r *recorder) begin(rid, parent uint64, name string) span {
	return span{ID: r.newID(), Parent: parent, RID: rid, Name: name, Start: int64(time.Since(r.epoch))}
}

// end closes and keeps a span opened by begin.
func (r *recorder) end(s span) {
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// snapshot returns the recorded spans and how many were dropped.
func (r *recorder) snapshot() ([]span, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may nest or
// overlap one another (a streamed response overlaps the handler that
// writes it); the covered part is the union of their intervals clipped
// to the parent, so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the kids' intervals within
// [start, end).
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// spanLine is the on-disk form of a span: one JSON object per line.
type spanLine struct {
	RID    uint64 `json:"rid"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// writeTrace writes every span with its request id and self time as
// JSON lines to path.
func writeTrace(path string, spans []span, self map[uint64]int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(spanLine{s.RID, s.ID, s.Parent, s.Name, s.Start, s.End, self[s.ID]}); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name          string
	Count         int
	DurP50, Self  float64 // µs: median duration, median self time
	TotalSelfMs   float64
	SelfShareOfOp float64
}

// summarize groups spans by name: median duration and self time, and
// each name's share of all root (op) time spent in its own code.
func summarize(spans []span, self map[uint64]int64) []spanSummary {
	type acc struct{ dur, self []float64 }
	by := make(map[string]*acc)
	var rootNs float64
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.dur = append(a.dur, float64(s.End-s.Start)/1e3)
		a.self = append(a.self, float64(self[s.ID])/1e3)
		if s.Parent == 0 {
			rootNs += float64(s.End - s.Start)
		}
	}
	out := make([]spanSummary, 0, len(by))
	for name, a := range by {
		d, _ := median(a.dur)
		sf, _ := median(a.self)
		tot := sum(a.self) * 1e3
		out = append(out, spanSummary{name, len(a.dur), d, sf, tot / 1e6, ratio(tot, rootNs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func printSummary(w io.Writer, sums []spanSummary, dropped int) {
	fmt.Fprintf(w, "%-22s %9s %12s %12s %12s %8s\n", "span", "count", "p50_us", "self_p50_us", "self_total_ms", "self%op")
	for _, s := range sums {
		fmt.Fprintf(w, "%-22s %9d %12.2f %12.2f %12.1f %7.1f%%\n", s.Name, s.Count, s.DurP50, s.Self, s.TotalSelfMs, 100*s.SelfShareOfOp)
	}
	if dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped past the %d-span cap)\n", dropped, maxSpans)
	}
}
