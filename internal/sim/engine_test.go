package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{Microsecond, "1.000µs"},
		{1500 * Nanosecond, "1.500µs"},
		{Millisecond, "1.000ms"},
		{2500 * Microsecond, "2.500ms"},
		{Second, "1.000000s"},
		{-5, "-5ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := (3 * Microsecond).Microseconds(); got != 3 {
		t.Errorf("Microseconds = %v, want 3", got)
	}
}

func TestDurationOfBytes(t *testing.T) {
	// 1 GB/s: 1 byte takes 1ns.
	if got := DurationOfBytes(1, 1e9); got != 1 {
		t.Errorf("1B at 1GB/s = %v, want 1ns", got)
	}
	// 64KB at 1GB/s = 65536ns.
	if got := DurationOfBytes(65536, 1e9); got != 65536 {
		t.Errorf("64KB at 1GB/s = %v, want 65536ns", got)
	}
	if got := DurationOfBytes(0, 1e9); got != 0 {
		t.Errorf("0 bytes = %v, want 0", got)
	}
	if got := DurationOfBytes(10, 0); got != 0 {
		t.Errorf("zero rate = %v, want 0", got)
	}
	// Rounds up: 1 byte at 3 bytes/ns-equivalent rate.
	if got := DurationOfBytes(1, 3e9); got != 1 {
		t.Errorf("fractional ns should round up to 1, got %v", got)
	}
}

func TestDurationOfBytesNeverZeroForPositive(t *testing.T) {
	f := func(n int64, rate float64) bool {
		if n <= 0 {
			n = -n + 1
		}
		if rate <= 0 || rate != rate { // negative or NaN
			rate = 1e9
		}
		return DurationOfBytes(n, rate) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events ran in order %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEventFIFOAtSameInstant(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := e.Schedule(10, func() { fired = true })
	if !tm.Stop() {
		t.Error("first Stop should report true")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Error("canceled event still fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New()
	tm := e.Schedule(10, func() {})
	e.Run()
	if tm.Stop() {
		t.Error("Stop after fire should report false")
	}
}

func TestAfterNegativeClamped(t *testing.T) {
	e := New()
	e.RunUntil(100)
	ran := false
	e.After(-50, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 100 {
		t.Errorf("After with negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want events at 10,20", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now = %v, want 25 (clock advances to bound)", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("remaining events did not fire: %v", fired)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	var ticks []Time
	var tm Timer
	tm = e.Every(10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 3 {
			tm.Stop()
		}
	})
	e.RunUntil(1000)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3", len(ticks))
	}
	for i, at := range []Time{10, 20, 30} {
		if ticks[i] != at {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], at)
		}
	}
}

func TestEveryZeroPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("Every(0) should panic")
		}
	}()
	e.Every(0, func() {})
}

func TestStepsCounter(t *testing.T) {
	e := New()
	for i := Time(1); i <= 5; i++ {
		e.Schedule(i, func() {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Errorf("Steps = %d, want 5", e.Steps())
	}
}

func TestPendingSkipsCanceled(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	tm := e.Schedule(20, func() {})
	tm.Stop()
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := New()
		r := NewRand(42)
		var log []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 4 {
				return
			}
			n := r.Intn(3) + 1
			for i := 0; i < n; i++ {
				e.After(Time(r.Intn(100)+1), func() {
					log = append(log, e.Now())
					spawn(depth + 1)
				})
			}
		}
		spawn(0)
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
