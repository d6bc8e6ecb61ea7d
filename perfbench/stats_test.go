package main

import "testing"

func TestNearestRank(t *testing.T) {
	if _, ok := nearestRank(nil, 50); ok {
		t.Fatal("empty set has no percentile")
	}
	if _, ok := median(nil); ok {
		t.Fatal("empty set has no median")
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 75, 3},
		{[]float64{1, 2, 3, 4}, 100, 4},
		{[]float64{1, 2, 3, 4}, 0.1, 1},
	}
	for _, c := range cases {
		if got, _ := nearestRank(c.xs, c.p); got != c.want {
			t.Errorf("nearestRank(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if got, _ := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median of unsorted 1..5 = %g, want 3", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10, 19} {
		if tl, ok := highestTail(seq(n)); ok {
			t.Errorf("n=%d: got tail %v, want none (fewer than %d samples beyond the median)", n, tl, minBeyond)
		}
	}
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{20, 50, 10},
		{39, 50, 19},
		{40, 75, 10},
		{100, 90, 10},
		{200, 95, 10},
		{999, 95, 49},
		{1000, 99, 10},
		{10000, 99.9, 10},
	}
	for _, c := range cases {
		tl, ok := highestTail(seq(c.n))
		if !ok || tl.P != c.p || tl.Beyond != c.beyond || tl.Samples != c.n {
			t.Errorf("n=%d: got %v ok=%v, want p%g with %d beyond", c.n, tl, ok, c.p, c.beyond)
		}
		if rank := c.n - c.beyond; tl.Value != float64(rank) {
			t.Errorf("n=%d: value %g, want the rank-%d sample", c.n, tl.Value, rank)
		}
	}
}

func TestP99FallsBackToSupportedTail(t *testing.T) {
	tl, ok := p99(seq(1000))
	if !ok || tl.P != 99 || tl.Value != 990 || tl.Beyond != 10 {
		t.Errorf("1000 samples: got %v, want p99=990 with 10 beyond", tl)
	}
	// 10000 samples support p99.9, but p99 is what was asked for.
	if tl, _ := p99(seq(10000)); tl.P != 99 || tl.Beyond != 100 {
		t.Errorf("10000 samples: got %v, want p99 with 100 beyond", tl)
	}
	if tl, ok := p99(seq(500)); !ok || tl.P != 95 {
		t.Errorf("500 samples: got %v, want the p95 fallback", tl)
	}
	if _, ok := p99(nil); ok {
		t.Error("empty set: want no tail")
	}
}
