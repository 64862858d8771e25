package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method: the smallest sample with at least p percent of the
// samples at or below it. It sorts xs in place and returns NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count). It sorts xs in place and returns NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed like Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, which is how run-to-run spread is judged. It sorts xs
// in place; fewer than two samples give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	sort.Float64s(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			q[i-1] = xs[0]
		case j >= n:
			q[i-1] = xs[n-1]
		default:
			q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
		}
	}
	return q[0], q[1], q[2]
}

// nanos converts durations in nanoseconds to float64 samples in the given
// unit (1e3 for µs, 1e6 for ms).
func nanos(ds []int64, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}
