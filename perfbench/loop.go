package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// tctx carries one operation's tracing state into the calls it makes:
// the recorder (nil when the operation is untraced), the request id
// and the span the next call nests under.
type tctx struct {
	rec    *recorder
	rid    uint64
	parent uint64
}

// child opens a span under the current one and returns it with the
// context for calls nested inside it.
func (t tctx) child(name string) (span, tctx) {
	if t.rec == nil {
		return span{}, t
	}
	s := t.rec.begin(t.rid, t.parent, name)
	return s, tctx{t.rec, t.rid, s.ID}
}

func (t tctx) end(s span) {
	if t.rec != nil {
		t.rec.end(s)
	}
}

// opResult is what one operation reports to the loop.
type opResult struct {
	answers int           // answers attempted: 1, or the batch size
	failed  int           // answers failed: error, non-200, shed, timeout or wrong
	wrong   int           // answers that came back but differ from the oracle
	first   time.Duration // time to the first result; 0 when the op is not a first-result op
	evalNs  int64         // server-reported evaluation time (elapsedNs), summed
}

// workload is one traffic mix. Each client runs its own seeded
// operation stream in a closed loop: it issues operation i+1 only after
// operation i has returned.
type workload interface {
	clients() int
	do(client, i int, tc tctx) opResult
}

// loopStats is the outcome of one closed-loop run.
type loopStats struct {
	lat, first             []float64 // ms per operation / per first-result operation
	ops                    int
	answers, failed, wrong int64
	evalNs                 int64
	elapsed                time.Duration
	allocBytes             uint64
	gcCycles               uint32
	gcPauseNs              uint64

	// Traced runs alternate traced and untraced windows; these split
	// the answers and wall time between the two.
	tracedAnswers, untracedAnswers int64
	tracedTime, untracedTime       time.Duration

	// windows counts the correct answers completed in each rateWindow
	// of the run; the last one is partial.
	windows []int64
}

// rateWindow is the length of the windows a run's throughput is
// counted in.
const rateWindow = time.Second

// traceWindow is the length of one traced or untraced window when a
// run alternates the two, so that both see the same drift in machine
// load.
const traceWindow = 250 * time.Millisecond

// runLoop runs w's clients for d. pos holds each client's position in
// its stream and is advanced, so a measured run continues where the
// warm-up stopped. With rec non-nil the run alternates traced and
// untraced windows, and tick (if set) is called at every switch.
func runLoop(w workload, pos []int, d time.Duration, rec *recorder, tick func()) loopStats {
	type clientStats struct {
		lat, first      []float64
		answers, failed int64
		wrong, evalNs   int64
		tracedAnswers   int64
		untracedAnswers int64
		windows         []int64
	}
	per := make([]clientStats, w.clients())
	var stop atomic.Bool
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for !stop.Load() {
				tc := tctx{}
				var root span
				if rec.active() {
					tc = tctx{rec: rec, rid: rec.newID()}
					root = rec.begin(tc.rid, 0, "op")
					tc.parent = root.ID
				}
				t0 := time.Now()
				r := w.do(c, pos[c], tc)
				lat := time.Since(t0)
				tc.end(root)
				pos[c]++
				st.lat = append(st.lat, float64(lat)/1e6)
				if r.first > 0 {
					st.first = append(st.first, float64(r.first)/1e6)
				}
				win := int(time.Since(start) / rateWindow)
				for len(st.windows) <= win {
					st.windows = append(st.windows, 0)
				}
				st.windows[win] += int64(r.answers - r.failed)
				st.answers += int64(r.answers)
				st.failed += int64(r.failed)
				st.wrong += int64(r.wrong)
				if tc.rec != nil {
					st.evalNs += r.evalNs
					st.tracedAnswers += int64(r.answers - r.failed)
				} else {
					st.untracedAnswers += int64(r.answers - r.failed)
				}
			}
		}(c)
	}

	var out loopStats
	if rec == nil {
		time.Sleep(d)
	} else {
		// Alternate windows until d has passed, keeping each mode's time.
		deadline := start.Add(d)
		traced := false
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			traced = !traced
			rec.on.Store(traced)
			win := min(traceWindow, deadline.Sub(now))
			time.Sleep(win)
			if traced {
				out.tracedTime += time.Since(now)
			} else {
				out.untracedTime += time.Since(now)
			}
			if tick != nil {
				tick()
			}
		}
		rec.on.Store(false)
	}
	stop.Store(true)
	wg.Wait()
	out.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs

	for _, st := range per {
		out.lat = append(out.lat, st.lat...)
		out.first = append(out.first, st.first...)
		out.answers += st.answers
		out.failed += st.failed
		out.wrong += st.wrong
		out.evalNs += st.evalNs
		out.tracedAnswers += st.tracedAnswers
		out.untracedAnswers += st.untracedAnswers
		for i, n := range st.windows {
			for len(out.windows) <= i {
				out.windows = append(out.windows, 0)
			}
			out.windows[i] += n
		}
	}
	out.ops = len(out.lat)
	return out
}
