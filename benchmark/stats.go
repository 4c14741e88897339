package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p percent of the samples at or
// below it. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// relSpread is (max-min)/median, the run-to-run spread -repeat compares
// with a metric's bound; 0 when the median is 0.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// rotation returns the order in which a round runs its n arms: round r
// starts at arm r mod n, so over n rounds every arm takes every position
// and none always runs on the heap its predecessor left behind.
func rotation(round, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (round + i) % n
	}
	return order
}
