package sim

import (
	"encoding/binary"
	"testing"
)

// FuzzEventQueue interprets the fuzz payload as a scheduling program — a mix
// of absolute and relative one-shots, deliberate same-instant ties, periodic
// timers and cancellations, with events that schedule further events from
// inside their own callbacks — and asserts the engine's one ordering promise
// under all of it: executed (at, seq) keys are strictly increasing, i.e.
// time never goes backwards and same-instant events fire in schedule order.
// The step hook observes every pop, so the check covers both the binary heap
// and the periodic wheel and their interleaving. After every Step the cached
// wheel minimum must equal a fresh scan, and a stopped periodic must never
// tick again.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x10\x00\x04\x10\x00\x01\x08\x00\x02\x40\x00\x03\x01\x00"))
	f.Add([]byte("\x02\x01\x00\x02\x01\x00\x04\x00\x00\x04\x00\x00\x03\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		eng := New()
		var lastAt Time
		var lastSeq uint64
		seen := false
		eng.SetStepHook(func(at Time, seq uint64) {
			if seen && (at < lastAt || (at == lastAt && seq <= lastSeq)) {
				t.Fatalf("pop order regressed: (%v, %d) fired after (%v, %d)", at, seq, lastAt, lastSeq)
			}
			lastAt, lastSeq, seen = at, seq, true
		})

		var timers []Timer
		// stopped[i] is set once timers[i] is stopped; a periodic's callback
		// checks its own entry, so a stopped ticker that fires again fails.
		var stopped []bool
		stop := func(i int) {
			timers[i].Stop()
			stopped[i] = true
		}
		schedule := func(tm Timer) {
			timers = append(timers, tm)
			stopped = append(stopped, false)
		}
		pos := 0
		periodics := 0
		var interp func()
		interp = func() {
			if pos+3 > len(data) {
				return
			}
			op := data[pos] % 5
			d := Time(binary.LittleEndian.Uint16(data[pos+1 : pos+3]))
			pos += 3
			switch op {
			case 0:
				schedule(eng.Schedule(eng.Now()+d, interp))
			case 1:
				schedule(eng.After(d, interp))
			case 2:
				// Bound the period from below so hostile inputs cannot ask
				// for millions of ticks inside the fuzz horizon.
				if periodics < 8 {
					periodics++
					i := len(timers)
					schedule(eng.Every(64+d%4096, func() {
						if stopped[i] {
							t.Fatalf("periodic %d ticked at %v after Stop", i, eng.Now())
						}
						interp()
					}))
				}
			case 3:
				if len(timers) > 0 {
					stop(int(d) % len(timers))
				}
			case 4:
				// Same-instant tie: both must fire, in schedule order.
				at := eng.Now() + d
				schedule(eng.Schedule(at, interp))
				schedule(eng.Schedule(at, interp))
			}
		}
		// step runs one event and checks the cached wheel minimum against a
		// fresh scan. It reports whether an event ran.
		step := func() bool {
			ran := eng.Step()
			if got, want := eng.wmin, eng.wheelMin(); got != want {
				t.Fatalf("cached wheel minimum %p, fresh scan %p", got, want)
			}
			return ran
		}
		for i := 0; i < 4 && pos < len(data); i++ {
			interp()
		}
		for at, ok := eng.peek(); ok && at <= 1<<17; at, ok = eng.peek() {
			step()
		}
		eng.RunUntil(1 << 17) // no events left by then: only advances the clock
		for i := range timers {
			stop(i)
		}
		// Drain what the program scheduled past the horizon; with every
		// periodic stopped this terminates.
		for step() {
		}
		if eng.Pending() != 0 {
			t.Fatalf("queue not drained: %d events pending after the last Step", eng.Pending())
		}
	})
}
