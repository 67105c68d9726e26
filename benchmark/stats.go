package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 when there are no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supported reports whether n samples carry the p-th percentile: a
// percentile is only quoted when at least ten samples lie beyond it,
// so one slow outlier cannot set it.
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}

// sortedCopy returns the samples in ascending order without disturbing
// the caller's slice (rounds keep appending to it).
func sortedCopy(samples []int64) []int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianFloat returns the median of vals (mean of the middle two for an
// even count), or 0 for none.
func medianFloat(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// ratio returns a/b, or 0 when b is 0: a layer that did no work has no
// per-operation cost.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
