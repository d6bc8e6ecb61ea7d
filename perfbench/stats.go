package main

import (
	"fmt"
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of the sorted
// samples by the nearest-rank rule: the smallest sample such that at
// least p percent of the samples are at or below it. ok is false for an
// empty sample set.
func nearestRank(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	return sorted[rankOf(p, n)-1], true
}

// rankOf is the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps float error (0.999*10000 is not 9990)
// from pushing an exact rank up by one.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// median is the nearest-rank 50th percentile of unsorted samples.
func median(xs []float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return nearestRank(s, 50)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie above a reported
// tail percentile for it to mean anything.
const minBeyond = 10

// tail is a tail-latency report: the percentile, its value, the sample
// count and how many samples lie strictly beyond the percentile's rank.
type tail struct {
	P       float64
	Value   float64
	Samples int
	Beyond  int
}

func (t tail) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", t.P, t.Value, t.Samples, t.Beyond)
}

// highestTail returns the highest ladder percentile that has at least
// minBeyond samples beyond its nearest rank. ok is false when even the
// median lacks them (fewer than about 2*minBeyond samples).
func highestTail(xs []float64) (tail, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return tailOf(s)
}

func tailOf(sorted []float64) (tail, bool) {
	for _, p := range tailLadder {
		if t, ok := tailAt(sorted, p); ok {
			return t, true
		}
	}
	return tail{Samples: len(sorted)}, false
}

// tailAt is the p-th percentile of sorted samples; ok reports whether at
// least minBeyond samples lie beyond it.
func tailAt(sorted []float64, p float64) (tail, bool) {
	n := len(sorted)
	if n == 0 {
		return tail{}, false
	}
	rank := rankOf(p, n)
	t := tail{P: p, Value: sorted[rank-1], Samples: n, Beyond: n - rank}
	return t, t.Beyond >= minBeyond
}

// p99 returns the 99th percentile when the samples support it (at
// least minBeyond samples beyond it); otherwise the highest supported
// ladder percentile, so the report never claims a tail it cannot see.
func p99(xs []float64) (tail, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if t, ok := tailAt(s, 99); ok {
		return t, true
	}
	return tailOf(s)
}

// sum adds the samples.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a counter whose layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
