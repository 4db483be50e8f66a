package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// same cut points as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads computed here and by a Python
// harness over the same values agree. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := len(s) + 1
	cut := func(i int) float64 {
		// Python clamps the index, then interpolates (or extrapolates,
		// for tiny samples) with the unclamped remainder.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest candidate percentile that has at least
// tailMinBeyond samples beyond it, and its nearest-rank value. ok is
// false when the sample is too small for even the median to qualify.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		rank := nearestRank(p, n)
		if rank < 1 || n-rank < tailMinBeyond {
			continue
		}
		return p, sorted(xs)[rank-1], true
	}
	return 0, 0, false
}

// nearestRank is the 1-based rank of percentile p among n samples. The
// small slack keeps binary rounding (99.9% of 10000 is 9990.000000000002
// in floating point) from pushing an exact rank up by one.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}
