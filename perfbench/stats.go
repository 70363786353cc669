package main

import (
	"math"
	"sort"
)

// dist summarizes a sample of one timing: its size, median, 99th
// percentile and mean.
type dist struct {
	N    int
	P50  float64
	P99  float64
	Mean float64
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// sample by the nearest-rank method: the smallest value with at least p%
// of the sample at or below it. An empty sample gives NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// summarize sorts a copy of xs and returns its distribution.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{P50: math.NaN(), P99: math.NaN(), Mean: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return dist{N: len(s), P50: percentile(s, 50), P99: percentile(s, 99), Mean: sum / float64(len(s))}
}

// supportedPercentile is the highest percentile of an n-sample that still
// has at least ten samples beyond it; below 10 samples there is none (0).
func supportedPercentile(n int) float64 {
	if n < 10 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

// median returns the median of xs (nearest rank), NaN when empty.
func median(xs []float64) float64 { return summarize(xs).P50 }
