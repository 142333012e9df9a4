package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// lowerQuartile is the 25th percentile of xs: the estimator for a
// fixed-work round's time, because interference only ever slows a round.
func lowerQuartile(xs []float64) float64 { return percentile(sortedCopy(xs), 25) }

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// iqrPct is the interquartile range of xs as a percentage of its median.
func iqrPct(xs []float64) float64 {
	s := sortedCopy(xs)
	m := percentile(s, 50)
	if m == 0 {
		return 0
	}
	return (percentile(s, 75) - percentile(s, 25)) / m * 100
}

// digest reduces one round's latency samples to at most k evenly spaced
// order statistics and appends them to pool, so that every round weighs
// the same in the pooled distribution and the pool's size does not depend
// on how many samples a round produced.  samples is sorted in place.
func digest(pool, samples []float64, k int) []float64 {
	sort.Float64s(samples)
	n := len(samples)
	if n <= k {
		return append(pool, samples...)
	}
	for i := 0; i < k; i++ {
		pool = append(pool, samples[(2*i+1)*n/(2*k)])
	}
	return pool
}
