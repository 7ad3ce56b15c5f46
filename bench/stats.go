package main

import (
	"fmt"
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer is noise, so the report refuses it.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// (exclusive) method as Python's statistics.quantiles(xs, n=4), so spreads
// printed here match the ones computed over a set of runs in Python. It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		// CPython's exclusive method verbatim: 1-based position i*(n+1)/4,
		// the lower index clamped to [1, n-1], then a linear blend of the
		// two neighbours (which extrapolates when the clamp bites).
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs: the
// smallest value with at least p·n values at or below it. It refuses (ok =
// false) when fewer than minTail samples lie beyond that rank.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minTail {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}

// minSamples is the smallest sample count at which percentile(·, p) is
// reported.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minTail {
			return n
		}
	}
}
