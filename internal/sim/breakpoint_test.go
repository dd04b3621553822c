package sim

import (
	"reflect"
	"testing"
)

// chainLoad schedules a deterministic mix of one-shot chains and periodic
// timers, returning a pointer to a counter the events bump.
func chainLoad(eng *Engine) *int {
	n := new(int)
	var hop func(at Time, depth int)
	hop = func(at Time, depth int) {
		eng.Schedule(at, func() {
			*n++
			if depth > 0 {
				hop(at+3*Millisecond, depth-1)
			}
		})
	}
	hop(Millisecond, 8)
	hop(2*Millisecond, 5)
	eng.Every(4*Millisecond, func() { *n++ })
	return n
}

// TestBreakpointSeqNeutral is the property the snapshot machinery rests on:
// arming a breakpoint must not perturb the event stream. An armed run's
// final engine export equals an unarmed run's, counter included.
func TestBreakpointSeqNeutral(t *testing.T) {
	run := func(arm bool) (EngineState, int) {
		eng := New()
		n := chainLoad(eng)
		fired := 0
		if arm {
			eng.Breakpoint(11*Millisecond, func() { fired++ })
		}
		eng.RunUntil(40 * Millisecond)
		if arm && fired != 1 {
			t.Fatalf("breakpoint fired %d times", fired)
		}
		return eng.Checkpoint(), *n
	}
	plainSt, plainN := run(false)
	armedSt, armedN := run(true)
	if plainN != armedN {
		t.Fatalf("event counts differ: unarmed %d, armed %d", plainN, armedN)
	}
	if !reflect.DeepEqual(plainSt, armedSt) {
		t.Fatalf("armed engine export diverged:\nunarmed %+v\narmed   %+v", plainSt, armedSt)
	}
}

// TestBreakpointFiresAtBoundary pins the fire semantics: a breakpoint at T
// runs once every event with timestamp <= T has executed, with the clock at
// exactly T — the same boundary RunUntil(T) stops on.
func TestBreakpointFiresAtBoundary(t *testing.T) {
	eng := New()
	var order []Time
	for _, at := range []Time{10, 20, 30} {
		at := at * Millisecond
		eng.Schedule(at, func() { order = append(order, at) })
	}
	var sawNow Time
	var sawEvents int
	eng.Breakpoint(20*Millisecond, func() {
		sawNow = eng.Now()
		sawEvents = len(order)
	})
	eng.Run()
	if sawNow != 20*Millisecond {
		t.Errorf("breakpoint clock = %v, want 20ms", sawNow)
	}
	if sawEvents != 2 {
		t.Errorf("breakpoint saw %d events executed, want 2 (10ms and 20ms)", sawEvents)
	}
	if len(order) != 3 {
		t.Errorf("run executed %d events, want 3", len(order))
	}
}

// TestBreakpointBetweenEventsAdvancesClock covers a breakpoint time no event
// lands on: it still fires, with the clock advanced to its time.
func TestBreakpointBetweenEventsAdvancesClock(t *testing.T) {
	eng := New()
	eng.Schedule(10*Millisecond, func() {})
	eng.Schedule(20*Millisecond, func() {})
	var at Time
	eng.Breakpoint(15*Millisecond, func() { at = eng.Now() })
	eng.RunUntil(25 * Millisecond)
	if at != 15*Millisecond {
		t.Errorf("breakpoint between events fired at %v, want 15ms", at)
	}
	if eng.Now() != 25*Millisecond {
		t.Errorf("RunUntil left clock at %v", eng.Now())
	}
}

// TestBreakpointOrdering: same-time breakpoints fire in arming order, and
// differently-timed ones in time order regardless of arming order.
func TestBreakpointOrdering(t *testing.T) {
	eng := New()
	eng.Schedule(30*Millisecond, func() {})
	var order []int
	eng.Breakpoint(20*Millisecond, func() { order = append(order, 2) })
	eng.Breakpoint(10*Millisecond, func() { order = append(order, 1) })
	eng.Breakpoint(20*Millisecond, func() { order = append(order, 3) })
	eng.Run()
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Errorf("fire order = %v, want [1 2 3]", order)
	}
}

// TestRunUntilMaxTimeFiresBreakpoints: RunUntil(MaxTime) runs every event
// and then fires the breakpoints armed after the last one; the boundary
// must not overflow past MaxTime.
func TestRunUntilMaxTimeFiresBreakpoints(t *testing.T) {
	eng := New()
	eng.After(5, func() {})
	fired := false
	eng.Breakpoint(10, func() { fired = true })
	eng.RunUntil(MaxTime)
	if !fired {
		t.Error("breakpoint at 10 did not fire in RunUntil(MaxTime)")
	}
	if eng.Now() != MaxTime {
		t.Errorf("Now = %v, want MaxTime", eng.Now())
	}
}

// TestBreakpointPastPanics mirrors Schedule's contract.
func TestBreakpointPastPanics(t *testing.T) {
	eng := New()
	eng.Schedule(5*Millisecond, func() {})
	eng.RunUntil(10 * Millisecond)
	defer func() {
		if recover() == nil {
			t.Error("breakpoint in the past did not panic")
		}
	}()
	eng.Breakpoint(5*Millisecond, func() {})
}

// TestEngineCheckpointEquality: two engines fed the same schedule and run to
// the same boundary export deep-equal state, and Checkpoint is a pure
// observer — exporting mid-run must not perturb the rest of the run.
func TestEngineCheckpointEquality(t *testing.T) {
	run := func(mid bool) EngineState {
		eng := New()
		chainLoad(eng)
		if mid {
			eng.Breakpoint(13*Millisecond, func() {
				_ = eng.Checkpoint()
				_ = eng.Checkpoint() // twice: still pure
			})
		}
		eng.RunUntil(30 * Millisecond)
		return eng.Checkpoint()
	}
	a, b := run(false), run(false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-schedule exports differ:\n%+v\n%+v", a, b)
	}
	c := run(true)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("mid-run Checkpoint perturbed the run:\n%+v\n%+v", a, c)
	}
	if len(a.Events)+len(a.Wheel) == 0 {
		t.Fatal("export holds no pending work; load did not exercise the queue")
	}
}

// TestBreakpointReArm covers a breakpoint that arms its successor, as a
// periodic watch does: under RunUntil(t) a 1 ms self-re-arming breakpoint
// fires exactly ⌊t/1ms⌋ times, under Run it stops once the last event has
// run, and in both cases the executed (at, seq) stream equals the unarmed
// one.
func TestBreakpointReArm(t *testing.T) {
	type key struct {
		at  Time
		seq uint64
	}
	run := func(arm bool, drive func(*Engine)) ([]key, int) {
		eng := New()
		var hop func(at Time, depth int)
		hop = func(at Time, depth int) {
			eng.Schedule(at, func() {
				if depth > 0 {
					hop(at+3*Millisecond+Microsecond, depth-1)
				}
			})
		}
		hop(Millisecond, 8)
		hop(2*Millisecond, 5)
		var stream []key
		eng.SetStepHook(func(at Time, seq uint64) { stream = append(stream, key{at, seq}) })
		fired := 0
		if arm {
			var tick func()
			tick = func() {
				fired++
				eng.Breakpoint(eng.Now()+Millisecond, tick)
			}
			eng.Breakpoint(Millisecond, tick)
		}
		drive(eng)
		return stream, fired
	}
	const until = 40*Millisecond + 500*Microsecond
	for _, tc := range []struct {
		name  string
		drive func(*Engine)
		want  int
	}{
		// The last event runs at 1ms + 8·3.001ms = 25.008ms; the breakpoints
		// at 1..25ms precede it, the one re-armed at 26ms never fires.
		{"Run", func(e *Engine) { e.Run() }, 25},
		{"RunUntil", func(e *Engine) { e.RunUntil(until) }, int(until / Millisecond)},
	} {
		plain, _ := run(false, tc.drive)
		armed, fired := run(true, tc.drive)
		if fired != tc.want {
			t.Errorf("%s: re-arming breakpoint fired %d times, want %d", tc.name, fired, tc.want)
		}
		if !reflect.DeepEqual(plain, armed) {
			t.Errorf("%s: armed (at, seq) stream diverged:\nunarmed %v\narmed   %v", tc.name, plain, armed)
		}
	}
}
