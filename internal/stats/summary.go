// Package stats provides the measurement primitives used by every
// experiment in the repository: streaming summaries (Welford), fixed-bucket
// histograms, quantile estimation over retained samples, and time series for
// figure reproduction.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and exposes count,
// mean, variance (Welford's online algorithm), min and max. The zero value
// is ready to use.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN records the same observation n times.
func (s *Summary) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		s.Add(x)
	}
}

// Merge folds other into s, as if every observation of other had been added
// to s (Chan et al. parallel variance combination).
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	s.m2 += other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	s.mean += d * float64(other.n) / float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n = n
}

// Count returns the number of observations.
func (s Summary) Count() int64 { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s Summary) Mean() float64 { return s.mean }

// Variance returns the population variance (0 with fewer than 2 samples).
func (s Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the population standard deviation.
func (s Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 when empty).
func (s Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Sum returns mean*count.
func (s Summary) Sum() float64 { return s.mean * float64(s.n) }

// Reset forgets all observations.
func (s *Summary) Reset() { *s = Summary{} }

// String renders "n=… mean=… sd=… min=… max=…".
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		s.n, s.Mean(), s.StdDev(), s.Min(), s.Max())
}

// Sample retains every observation, enabling exact quantiles. Use for
// bounded experiment outputs, not unbounded streams.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks. Empty samples return 0.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s.xs[n-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Min returns the smallest observation (0 when empty).
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Summary converts the sample into a streaming Summary.
func (s *Sample) Summary() *Summary {
	sum := &Summary{}
	for _, x := range s.xs {
		sum.Add(x)
	}
	return sum
}
