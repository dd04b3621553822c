package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// rank is the nearest-rank position (1-based) of the p-th percentile among
// n sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps binary rounding (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// minBeyond is how many samples a reported tail percentile must have above
// it: fewer, and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile is the highest of the usual tail percentiles that keeps at
// least minBeyond of n samples above it, or 0 when even p90 does not.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}
