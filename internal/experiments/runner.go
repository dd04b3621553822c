package experiments

import "resex/internal/par"

// RunSweep runs one function per point of a figure's parameter sweep and
// returns their results in declaration order. Points must not share
// mutable state: each builds its own testbed (via Build or equivalent),
// which is what makes them safe to run concurrently.
//
// par.For runs the points on up to o.Parallel goroutines. Results are
// merged by point index and every point receives the same derived options
// at any width, so the assembled output is byte-identical to the serial
// run for the same seed: parallelism changes wall-clock time only.
//
// Each point receives a per-point copy of the options with Parallel reset to
// 1 (a point is a leaf and must not fan out again) and PointSeed set to a
// splitmix64-derived stream unique to (o.Seed, index), for points that want
// decorrelated randomness without coordinating offsets. (The historical
// figure drivers keep their original o.Seed arithmetic so recorded outputs
// stay stable; see EXPERIMENTS.md.)
//
// Every point runs, and the error returned is the earliest failing point's
// in declaration order.
func RunSweep[T any](o Options, points []func(o Options) (T, error)) ([]T, error) {
	results := make([]T, len(points))
	errs := make([]error, len(points))
	par.For(len(points), o.Parallel, func(i int) {
		results[i], errs[i] = points[i](o.forPoint(i))
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// forPoint derives the options handed to point i of a sweep.
func (o Options) forPoint(i int) Options {
	o.Parallel = 1
	o.PointSeed = DeriveSeed(o.Seed, i)
	return o
}

// DeriveSeed maps (base seed, point index) to a well-mixed 64-bit stream
// seed using the splitmix64 finalizer, so sweep points that opt into
// PointSeed get decorrelated streams even for adjacent indices and small
// base seeds.
func DeriveSeed(base int64, point int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(point+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
