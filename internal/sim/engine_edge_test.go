package sim

import (
	"testing"
)

// TestTimerWhenAfterFire is the regression test for the When() nil-deref: a
// consumed one-shot (including the pooled-and-reused case) must report its
// fire time instead of panicking.
func TestTimerWhenAfterFire(t *testing.T) {
	e := New()
	tm := e.Schedule(10, func() {})
	e.Run()
	if got := tm.When(); got != 10 {
		t.Errorf("When after fire = %v, want 10", got)
	}
	// Force the pooled event to be reused for a different occurrence; the
	// stale handle must still answer from its own schedule time.
	tm2 := e.Schedule(e.Now()+5, func() {})
	if got := tm.When(); got != 10 {
		t.Errorf("When after pool reuse = %v, want 10", got)
	}
	if got := tm2.When(); got != 15 {
		t.Errorf("fresh Timer When = %v, want 15", got)
	}
}

// TestTimerZeroValue: the zero Timer (and a nil pointer) must be inert for
// every method, like the "no timer armed" states xen and fabric keep.
func TestTimerZeroValue(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop = true")
	}
	if tm.Active() {
		t.Error("zero Timer Active = true")
	}
	if tm.When() != 0 {
		t.Errorf("zero Timer When = %v, want 0", tm.When())
	}
	var tp *Timer
	if tp.Stop() || tp.Active() || tp.When() != 0 {
		t.Error("nil *Timer methods not inert")
	}
}

// TestEveryTimerWhen tracks the pending occurrence across ticks and after a
// stop (the Every case of the When() regression).
func TestEveryTimerWhen(t *testing.T) {
	e := New()
	var tm Timer
	var seen []Time
	tm = e.Every(10, func() {
		seen = append(seen, tm.When())
		if len(seen) == 2 {
			tm.Stop()
		}
	})
	if got := tm.When(); got != 10 {
		t.Errorf("When before first tick = %v, want 10", got)
	}
	e.RunUntil(100)
	// Inside the tick, the reschedule has not happened yet, so When reports
	// the executing occurrence (matching the old heap implementation).
	if len(seen) != 2 || seen[0] != 10 || seen[1] != 20 {
		t.Fatalf("When inside ticks = %v, want [10 20]", seen)
	}
	if got := tm.When(); got != 20 {
		t.Errorf("When after stop = %v, want last tick time 20", got)
	}
}

// TestStopRemovesInPlace: canceling must remove the event from the queue
// immediately — Pending drops at Stop, not at the would-have-fired pop.
func TestStopRemovesInPlace(t *testing.T) {
	e := New()
	var timers []Timer
	for i := 1; i <= 100; i++ {
		timers = append(timers, e.Schedule(Time(i), func() { t.Error("canceled event fired") }))
	}
	for i, tm := range timers {
		if !tm.Stop() {
			t.Fatalf("Stop %d = false", i)
		}
		if got := e.Pending(); got != 99-i {
			t.Fatalf("Pending after %d stops = %d, want %d", i+1, got, 99-i)
		}
	}
	e.Run()
	if e.Steps() != 0 {
		t.Errorf("Steps = %d, want 0", e.Steps())
	}
}

// TestCancelHeavyBounded: a workload that schedules and cancels repeatedly
// must reuse pooled events instead of accreting canceled ones — zero
// allocations per schedule+cancel round once the pool is warm, and an empty
// queue afterwards.
func TestCancelHeavyBounded(t *testing.T) {
	e := New()
	round := func() {
		var tms [64]Timer
		for i := range tms {
			tms[i] = e.Schedule(e.Now()+Time(i+1), func() {})
		}
		for i := range tms {
			tms[i].Stop()
		}
	}
	round() // warm the pool and the heap slice
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("schedule+cancel round allocates %.1f/run, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

// TestZeroAllocSteadyState: the schedule/fire hot path — one-shot events
// recycling through the pool, on the heap and on a delay queue — must not
// allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	e := New()
	q := e.Delay(3)
	var tick func()
	n := 0
	tick = func() { n++ }
	e.After(1, tick)
	q.After(tick)
	e.Run() // warm
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.After(Time(i%7+1), tick)
			q.After(tick)
		}
		e.Run()
	}); allocs != 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f/run, want 0", allocs)
	}
}

// TestEveryStopInsideTick: fn stopping its own timer mid-tick reports false
// (the pending occurrence is the one executing) and suppresses every
// further tick.
func TestEveryStopInsideTick(t *testing.T) {
	e := New()
	var tm Timer
	ticks := 0
	var stopRet bool
	tm = e.Every(10, func() {
		ticks++
		stopRet = tm.Stop()
	})
	e.RunUntil(200)
	if ticks != 1 {
		t.Errorf("ticks = %d, want 1", ticks)
	}
	if stopRet {
		t.Error("Stop from inside own tick reported true (nothing pending was canceled)")
	}
	if tm.Stop() {
		t.Error("second Stop reported true")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", e.Pending())
	}
}

// TestEveryStopAfterReschedule: a same-instant event scheduled by the tick
// runs after the engine has rescheduled the recurring timer; stopping there
// must cancel the genuinely pending next occurrence and report true.
func TestEveryStopAfterReschedule(t *testing.T) {
	e := New()
	var tm Timer
	ticks := 0
	var stopRet bool
	tm = e.Every(10, func() {
		ticks++
		e.After(0, func() { stopRet = tm.Stop() })
	})
	e.RunUntil(200)
	if ticks != 1 {
		t.Errorf("ticks = %d, want 1", ticks)
	}
	if !stopRet {
		t.Error("Stop after the reschedule reported false, want true")
	}
}

// TestScheduleAtExactlyNow: scheduling at the current instant (from outside
// and from inside an event) is legal and fires in FIFO position.
func TestScheduleAtExactlyNow(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(0, func() { got = append(got, 0) }) // at == Now before any Run
	e.Schedule(5, func() {
		got = append(got, 1)
		e.Schedule(e.Now(), func() { got = append(got, 3) })
		e.Schedule(e.Now(), func() { got = append(got, 4) })
	})
	e.Schedule(5, func() { got = append(got, 2) })
	e.Run()
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5", e.Now())
	}
}

// TestFIFOSameInstantPooled: FIFO ordering of many same-instant events must
// survive event-pool reuse (seq, not identity, is the tie-breaker).
func TestFIFOSameInstantPooled(t *testing.T) {
	e := New()
	for i := 0; i < 50; i++ { // churn the pool first
		e.Schedule(Time(i+1), func() {})
	}
	e.Run()
	var got []int
	at := e.Now() + 10
	for i := 0; i < 10; i++ {
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO after pool reuse: %v", got)
		}
	}
}

// TestEveryHeapInterleaving: a recurring tick and a one-shot landing on the
// same instant order by seq — i.e. by creation order — exactly as two heap
// events would.
func TestEveryHeapInterleaving(t *testing.T) {
	for _, everyFirst := range []bool{true, false} {
		e := New()
		var got []string
		mk := func() (Timer, Timer) {
			if everyFirst {
				p := e.Every(10, func() { got = append(got, "tick") })
				s := e.Schedule(10, func() { got = append(got, "shot") })
				return p, s
			}
			s := e.Schedule(10, func() { got = append(got, "shot") })
			p := e.Every(10, func() { got = append(got, "tick") })
			return p, s
		}
		p, _ := mk()
		e.RunUntil(10)
		p.Stop()
		want := []string{"tick", "shot"}
		if !everyFirst {
			want = []string{"shot", "tick"}
		}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("everyFirst=%v: order %v, want %v", everyFirst, got, want)
		}
	}
}

// TestStepsDeterministicAcrossRuns: the pooled/free-list engine must execute
// the identical event count and sequence for the identical seeded workload.
func TestStepsDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, []Time) {
		e := New()
		r := NewRand(99)
		var log []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 5 {
				return
			}
			n := r.Intn(4) + 1
			for i := 0; i < n; i++ {
				tm := e.After(Time(r.Intn(50)+1), func() {
					log = append(log, e.Now())
					spawn(depth + 1)
				})
				if r.Intn(5) == 0 {
					tm.Stop() // cancel-heavy: exercises removeAt + pool reuse
				}
			}
		}
		spawn(0)
		e.Every(17, func() { log = append(log, -e.Now()) })
		e.RunUntil(400)
		return e.Steps(), log
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Fatalf("Steps nondeterministic: %d vs %d", s1, s2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("log length nondeterministic: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("log diverges at %d: %v vs %v", i, l1[i], l2[i])
		}
	}
}

// TestTimerActive tracks the full lifecycle for one-shots and recurring
// timers.
func TestTimerActive(t *testing.T) {
	e := New()
	tm := e.Schedule(10, func() {})
	if !tm.Active() {
		t.Error("scheduled one-shot not Active")
	}
	e.Run()
	if tm.Active() {
		t.Error("fired one-shot still Active")
	}
	per := e.Every(10, func() {})
	if !per.Active() {
		t.Error("recurring timer not Active")
	}
	e.RunUntil(e.Now() + 25)
	if !per.Active() {
		t.Error("recurring timer inactive while still rescheduling")
	}
	per.Stop()
	if per.Active() {
		t.Error("stopped recurring timer still Active")
	}
	canceled := e.Schedule(e.Now()+5, func() {})
	canceled.Stop()
	if canceled.Active() {
		t.Error("canceled one-shot still Active")
	}
}

// TestPendingCountsWheel: Pending counts both one-shots and pending
// periodic occurrences.
func TestPendingCountsWheel(t *testing.T) {
	e := New()
	tm := e.Every(10, func() {})
	e.Schedule(5, func() {})
	e.Schedule(7, func() {})
	if got := e.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3", got)
	}
	e.RunUntil(7)
	if got := e.Pending(); got != 1 {
		t.Errorf("Pending after one-shots = %d, want 1 (the periodic's next occurrence)", got)
	}
	tm.Stop()
	if got := e.Pending(); got != 0 {
		t.Errorf("Pending after stop = %d, want 0", got)
	}
}
