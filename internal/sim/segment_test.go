package sim

import (
	"reflect"
	"testing"
)

// tickerObservation is what one breakpoint of a ticker run saw.
type tickerObservation struct {
	State   EngineState
	Pending int
	Echoes  int
}

// tickerRun is everything one ticker run observed.
type tickerRun struct {
	obs      []tickerObservation
	hooked   []EventKey
	credited uint64
}

// runTicker drives a ticker that, n times, ticks every period and schedules
// an echo echo after each tick, beside a random stream of unrelated events
// that schedule more of their own, breakpoints and a RunUntil limit. With
// segment set, the ticks and echoes wait on the lanes of a Segment and are
// credited, whole periods at once where nothing else comes between, until
// an unrelated event materializes them midway; the rest of the run
// dispatches them with After. Without it every tick and echo is dispatched.
// hookEvery installs a sampled step hook of that stride (0: none).
func runTicker(seed int64, segment bool, hookEvery uint64) tickerRun {
	const period, echo = 100, 30
	var run tickerRun
	eng := New()
	if hookEvery > 0 {
		eng.SetSampledStepHook(hookEvery, func(at Time, seq uint64) {
			run.hooked = append(run.hooked, EventKey{At: at, Seq: seq})
		})
	}
	r := NewRand(seed)
	left, echoes := 40+r.Intn(40), 0

	// The per-event ticker, and the model a segment credits in its place.
	var tick func()
	onEcho := func() { echoes++ }
	tick = func() {
		if left > 0 {
			left--
			eng.After(echo, onEcho)
			eng.After(period, tick)
		}
	}
	var seg *Segment
	var ticks, echos *Lane
	credit := func() bool { // reports whether the credit scheduled anything
		if li, _, _ := seg.Head(); li == ticks.i {
			seg.Credit()
			if left == 0 {
				return false
			}
			left--
			echos.After(echo)
			ticks.After(period)
			return true
		}
		seg.Credit()
		echoes++
		return true
	}
	seg = eng.NewSegment(func(boundAt Time, boundSeq uint64, limit Time) {
		for {
			li, at, seq := seg.Head()
			if li < 0 || at > limit || at > boundAt || (at == boundAt && seq >= boundSeq) {
				return
			}
			// At a tick with no echo held, a period is a tick then its
			// echo, each scheduling in turn: the echo, then the next tick.
			if li == ticks.i && echos.Len() == 0 {
				last := min(limit, boundAt-1)
				if n := min(uint64(max(0, (last-at-echo)/period+1)), uint64(left), seg.Room(2)); n > 0 && at+echo <= last {
					base := seg.Seq()
					ticks.Rekey(0, at+Time(n)*period, base+2*n)
					seg.CreditPeriods(n, 2, at+Time(n-1)*period+echo)
					left -= int(n)
					echoes += int(n)
					continue
				}
			}
			if !credit() && seg.held == 0 {
				return
			}
		}
	})
	if segment {
		ticks, echos = seg.Lane(), seg.Lane()
		eng.After(0, func() { ticks.After(0) })
	} else {
		eng.After(0, func() { eng.After(0, tick) })
	}

	// The same unrelated stream, breakpoints and materialization instant
	// on both sides.
	observe := func() {
		run.obs = append(run.obs, tickerObservation{State: eng.Checkpoint(), Pending: eng.Pending(), Echoes: echoes})
	}
	var spawn func()
	spawn = func() {
		if r.Intn(3) > 0 {
			eng.After(Time(r.Intn(90)), spawn)
		}
	}
	for i := 0; i < 30; i++ {
		eng.Schedule(Time(r.Intn(4000)), spawn)
		eng.Breakpoint(Time(r.Intn(6000)), observe)
	}
	eng.Schedule(Time(1000+r.Intn(3000)), func() {
		if segment {
			ticks.Materialize(tick)
			echos.Materialize(onEcho)
		}
	})
	eng.RunUntil(Time(r.Intn(5000)))
	observe()
	eng.Run()
	observe()
	run.credited = eng.Credited()
	return run
}

// TestSegmentMatchesDispatch: events a Segment credits, one at a time or
// whole periods at once, and then materializes leave every observable of
// the engine as dispatching them would: the clock, Steps, Seq, each pending
// key, the pool occupancy and Pending at every breakpoint and the RunUntil
// limit, and the keys a sampled step hook sees at strides 1, 2 and 4.
func TestSegmentMatchesDispatch(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, every := range []uint64{0, 1, 2, 4} {
			got, want := runTicker(seed, true, every), runTicker(seed, false, every)
			if got.credited == 0 || want.credited != 0 {
				t.Fatalf("seed %d stride %d: %d events credited with a segment, %d without", seed, every, got.credited, want.credited)
			}
			if !reflect.DeepEqual(got.obs, want.obs) {
				t.Fatalf("seed %d stride %d: observations differ\nsegment  %+v\ndispatch %+v", seed, every, got.obs, want.obs)
			}
			if !reflect.DeepEqual(got.hooked, want.hooked) {
				t.Fatalf("seed %d stride %d: the step hook saw %v with a segment, %v without", seed, every, got.hooked, want.hooked)
			}
		}
	}
}
