package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// sleepPoint returns a point that records nothing but takes real time, to
// force overlap between workers.
func sleepPoint(i int) SweepPoint[int] {
	return Point(fmt.Sprintf("p%d", i), func(o Options) (int, error) {
		time.Sleep(time.Duration(5-i%3) * time.Millisecond)
		return i * i, nil
	})
}

func TestRunSweepOrderPreserved(t *testing.T) {
	t.Parallel()
	var points []SweepPoint[int]
	for i := 0; i < 12; i++ {
		points = append(points, sleepPoint(i))
	}
	for _, par := range []int{1, 4, 32} {
		got, err := RunSweep(Options{Parallel: par}, points)
		if err != nil {
			t.Fatalf("Parallel=%d: %v", par, err)
		}
		if len(got) != 12 {
			t.Fatalf("Parallel=%d: %d results, want 12", par, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("Parallel=%d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunSweepErrorDeclaredOrder(t *testing.T) {
	t.Parallel()
	errA := errors.New("a failed")
	errB := errors.New("b failed")
	points := []SweepPoint[int]{
		Point("ok", func(o Options) (int, error) { return 1, nil }),
		Point("a", func(o Options) (int, error) {
			time.Sleep(10 * time.Millisecond) // fails *later* in wall time...
			return 0, errA
		}),
		Point("b", func(o Options) (int, error) { return 0, errB }),
	}
	for _, par := range []int{1, 3} {
		_, err := RunSweep(Options{Parallel: par}, points)
		// ...but the declared-order error wins, matching the serial loop.
		if err != errA {
			t.Errorf("Parallel=%d: err = %v, want %v", par, err, errA)
		}
	}
}

func TestRunSweepPointOptions(t *testing.T) {
	t.Parallel()
	base := Options{Seed: 42, Parallel: 8}
	var seen []Options
	var points []SweepPoint[Options]
	for i := 0; i < 4; i++ {
		points = append(points, Point(fmt.Sprintf("p%d", i),
			func(o Options) (Options, error) { return o, nil }))
	}
	got, err := RunSweep(base, points)
	if err != nil {
		t.Fatal(err)
	}
	seen = got
	for i, o := range seen {
		if o.Parallel != 1 {
			t.Errorf("point %d: Parallel = %d, want 1 (points are leaves)", i, o.Parallel)
		}
		if o.Seed != 42 {
			t.Errorf("point %d: Seed = %d, want base seed 42", i, o.Seed)
		}
		if o.PointSeed != DeriveSeed(42, i) {
			t.Errorf("point %d: PointSeed = %d, want DeriveSeed(42,%d)", i, o.PointSeed, i)
		}
	}
}

func TestDeriveSeedDistinct(t *testing.T) {
	t.Parallel()
	seen := map[int64]bool{}
	for _, base := range []int64{0, 1, 2, 42, -7} {
		for i := 0; i < 64; i++ {
			s := DeriveSeed(base, i)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at base=%d i=%d: %d", base, i, s)
			}
			seen[s] = true
			if s2 := DeriveSeed(base, i); s2 != s {
				t.Fatalf("DeriveSeed not deterministic: %d vs %d", s, s2)
			}
		}
	}
}
