package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {51, 6},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7.5, 1.25, 3, 9, 2, 8, 4.5, 6, 5, 10, 11}, [3]float64{3, 6, 9}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one sample are not NaN")
	}
}

func TestNanos(t *testing.T) {
	got := nanos([]int64{1500, 2_000_000}, 1e3)
	if got[0] != 1.5 || got[1] != 2000 {
		t.Errorf("nanos = %v", got)
	}
}

// TestP90LatencyIgnoresBurstSlices checks that a few slices inflated by a
// burst do not move the reported p90, and that the input is left as is.
func TestP90LatencyIgnoresBurstSlices(t *testing.T) {
	slices := []float64{3.1, 2.9, 3.0, 9.5, 3.2, 3.0, 8.8, 2.9, 3.1, 3.0}
	if got := p90Latency(slices); got < 2.9 || got > 3.0 {
		t.Errorf("p90Latency = %v, want the lower quartile of the quiet slices, 2.9–3.0", got)
	}
	if slices[3] != 9.5 {
		t.Error("p90Latency reordered its input")
	}
}
