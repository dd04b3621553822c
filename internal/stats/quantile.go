package stats

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSketchAlpha is the relative-accuracy target a zero-configured
// QuantileSketch uses: estimated quantiles are within ±1% of the true value.
const DefaultSketchAlpha = 0.01

// QuantileSketch estimates quantiles of an unbounded stream in bounded
// memory using logarithmic buckets (the DDSketch construction): observation
// x > 0 lands in bucket ⌈log_γ(x)⌉ with γ = (1+α)/(1−α), which guarantees
// every estimate is within relative error α of the true quantile value.
// Non-positive observations collapse into a dedicated zero bucket.
//
// Sketches are mergeable and the merge is exact: bucket counts add, so
// merging is commutative and associative and a sketch built from merged
// shards is bit-identical to one that saw the whole stream — which is what
// lets per-window and per-tenant sketches roll up deterministically in the
// workload engine regardless of merge order.
type QuantileSketch struct {
	alpha    float64
	gamma    float64
	logGamma float64
	counts   map[int]int64
	zero     int64 // observations ≤ 0
	n        int64
	min, max float64
}

// NewQuantileSketch creates a sketch with relative accuracy alpha in (0,1);
// alpha ≤ 0 selects DefaultSketchAlpha.
func NewQuantileSketch(alpha float64) *QuantileSketch {
	if alpha <= 0 {
		alpha = DefaultSketchAlpha
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("stats: sketch alpha %v out of (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha:    alpha,
		gamma:    gamma,
		logGamma: math.Log(gamma),
		counts:   make(map[int]int64),
	}
}

// Alpha returns the sketch's relative-accuracy parameter.
func (s *QuantileSketch) Alpha() float64 { return s.alpha }

// Count returns the number of observations.
func (s *QuantileSketch) Count() int64 { return s.n }

// Buckets returns how many non-zero log buckets the sketch occupies (its
// memory footprint, excluding the zero bucket).
func (s *QuantileSketch) Buckets() int { return len(s.counts) }

// Min returns the smallest observation (0 when empty).
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Add records one observation.
func (s *QuantileSketch) Add(x float64) { s.AddN(x, 1) }

// AddN records the same observation n times. Non-finite observations are
// sanitized before anything else sees them: NaN becomes 0 and ±Inf clamps to
// ±MaxFloat64. A NaN that reached the min/max comparisons would freeze them
// in a shard- and order-dependent way — the first shard to see one reports
// NaN extremes forever while the others don't, so merge results would depend
// on merge order, breaking the merged-equals-whole-stream guarantee (found
// by FuzzQuantileMerge). An infinity would additionally push the bucket key
// through an implementation-defined float→int conversion.
func (s *QuantileSketch) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	switch {
	case math.IsNaN(x):
		x = 0
	case math.IsInf(x, 1):
		x = math.MaxFloat64
	case math.IsInf(x, -1):
		x = -math.MaxFloat64
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n += n
	if x <= 0 {
		s.zero += n
		return
	}
	s.counts[s.key(x)] += n
}

// key maps a positive observation to its log bucket index.
func (s *QuantileSketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / s.logGamma))
}

// value returns the representative value of bucket k: the midpoint
// 2γ^k/(γ+1) of the bucket's (γ^(k−1), γ^k] range, within α of every value
// the bucket can hold.
func (s *QuantileSketch) value(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Merge folds other into s, as if every observation of other had been added
// to s. Both sketches must share the same alpha. Bucket counts add exactly,
// so merging is associative and insensitive to order.
func (s *QuantileSketch) Merge(other *QuantileSketch) {
	if other == nil || other.n == 0 {
		return
	}
	if other.alpha != s.alpha {
		panic(fmt.Sprintf("stats: merging sketches with alpha %v and %v", s.alpha, other.alpha))
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.n += other.n
	s.zero += other.zero
	for k, c := range other.counts {
		s.counts[k] += c
	}
}

// Quantile returns the estimated q-quantile (0 ≤ q ≤ 1), clamped into
// [Min, Max]. Empty sketches return 0. The estimate is deterministic: bucket
// keys are walked in sorted order, so the same multiset of observations —
// however added or merged — always yields the same value.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	cum := s.zero
	if cum >= rank {
		return s.clamp(0)
	}
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		cum += s.counts[k]
		if cum >= rank {
			return s.clamp(s.value(k))
		}
	}
	return s.max
}

// clamp bounds an estimate by the exactly-tracked extremes.
func (s *QuantileSketch) clamp(x float64) float64 {
	if x < s.min {
		return s.min
	}
	if x > s.max {
		return s.max
	}
	return x
}

// Reset forgets all observations, keeping the configured accuracy and the
// bucket map's storage, so a sketch reset every window stops allocating
// once its buckets exist.
func (s *QuantileSketch) Reset() {
	clear(s.counts)
	s.zero, s.n = 0, 0
	s.min, s.max = 0, 0
}
