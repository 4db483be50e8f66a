package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// reference the ten-run spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{0.5, 0.25, 1.5, 2.0, 8.0, 3.0, 4.0, 6.0, 7.0, 2.5}, 1.25, 2.75, 6.25},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must not be ok")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{n: 19},                   // the median leaves only 9 beyond
		{n: 20, pct: 50, val: 10}, // rank 10 leaves 10 beyond
		{n: 100, pct: 90, val: 90},
		{n: 199, pct: 90, val: 180}, // p95 would leave 9
		{n: 200, pct: 95, val: 190},
		{n: 1000, pct: 99, val: 990},
		{n: 10000, pct: 99.9, val: 9990},
	} {
		pct, val, ok := tail(seq(tc.n))
		if ok != (tc.pct != 0) || pct != tc.pct || val != tc.val {
			t.Errorf("tail(n=%d) = p%v %v %v, want p%v %v", tc.n, pct, val, ok, tc.pct, tc.val)
		}
		if ok && tc.n-nearestRank(pct, tc.n) < tailMinBeyond {
			t.Errorf("tail(n=%d) = p%v leaves fewer than %d samples beyond", tc.n, pct, tailMinBeyond)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
