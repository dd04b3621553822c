package sim

import "math/rand"

// Rand is a seeded pseudo-random source with the distributions the
// simulation needs. It wraps math/rand.Rand so all randomness in a run flows
// from explicit seeds and results are reproducible.
//
// Every variate drawn increments a counter exposed by Draws. math/rand's
// generator state cannot be exported, but for a seeded deterministic stream
// the (seed, draw count) pair pins the position exactly — it is the RNG
// export the snapshot verifier compares after a replay.
type Rand struct {
	r     *rand.Rand
	seed  int64
	draws uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed this generator was created with.
func (r *Rand) Seed() int64 { return r.seed }

// Draws returns how many variates have been drawn so far. Together with the
// seed it identifies the stream position deterministically.
func (r *Rand) Draws() uint64 { return r.draws }

// Int63n returns a uniform integer in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	r.draws++
	return r.r.Int63n(n)
}

// Intn returns a uniform integer in [0, n).
func (r *Rand) Intn(n int) int {
	r.draws++
	return r.r.Intn(n)
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	r.draws++
	return r.r.Float64()
}

// Uniform returns a uniform float in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	r.draws++
	return lo + (hi-lo)*r.r.Float64()
}

// Normal returns a normal variate with the given mean and stddev.
func (r *Rand) Normal(mean, stddev float64) float64 {
	r.draws++
	return mean + stddev*r.r.NormFloat64()
}

// Exp returns an exponential variate with the given mean (not rate).
func (r *Rand) Exp(mean float64) float64 {
	r.draws++
	return r.r.ExpFloat64() * mean
}

// ExpDuration returns an exponentially distributed duration with mean d,
// clamped to at least 1ns.
func (r *Rand) ExpDuration(d Time) Time {
	v := Time(r.Exp(float64(d)))
	if v < 1 {
		v = 1
	}
	return v
}
