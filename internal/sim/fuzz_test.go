package sim

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// eventProgramState is what one run of a fuzz program exposes just before an
// event's callback runs: the event's key, Pending() and Checkpoint().
type eventProgramState struct {
	at      Time
	seq     uint64
	pending int
	st      EngineState
}

// runEventProgram interprets data as a scheduling program. The first four
// bytes pick two or three delays; then every three bytes are one op: absolute
// and relative one-shots, deliberate same-instant ties, periodic timers,
// cancellations, and one or several callbacks on one of the delays. Every
// callback runs the next op, so events schedule further events from inside
// their own callbacks. With useDelay the delay ops go through Engine.Delay
// queues; without it the same callbacks are scheduled with Engine.After.
//
// It asserts the engine's ordering promise — executed (at, seq) keys are
// strictly increasing, i.e. time never goes backwards and same-instant
// events fire in schedule order — and that a stopped periodic never ticks
// again. It returns the state seen before every event and after each run
// phase.
func runEventProgram(t *testing.T, data []byte, useDelay bool) []eventProgramState {
	t.Helper()
	if len(data) > 512 {
		data = data[:512]
	}
	var header [4]byte
	copy(header[:], data)
	data = data[min(len(data), 4):]
	delays := make([]Time, 2+header[0]%2)
	for k := range delays {
		delays[k] = Time(header[1+k])
	}

	eng := New()
	queues := make([]*Delay, len(delays))
	if useDelay {
		for k, d := range delays {
			queues[k] = eng.Delay(d)
		}
	}
	var trace []eventProgramState
	record := func(at Time, seq uint64) {
		trace = append(trace, eventProgramState{at: at, seq: seq, pending: eng.Pending(), st: eng.Checkpoint()})
	}
	var lastAt Time
	var lastSeq uint64
	seen := false
	eng.SetStepHook(func(at Time, seq uint64) {
		if seen && (at < lastAt || (at == lastAt && seq <= lastSeq)) {
			t.Fatalf("pop order regressed: (%v, %d) fired after (%v, %d)", at, seq, lastAt, lastSeq)
		}
		lastAt, lastSeq, seen = at, seq, true
		record(at, seq)
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
	draining := false
	var interp func()
	delayed := func(k int) {
		if useDelay {
			queues[k].After(interp)
		} else {
			eng.After(delays[k], interp)
		}
	}
	interp = func() {
		if pos+3 > len(data) {
			return
		}
		op := data[pos] % 7
		d := Time(binary.LittleEndian.Uint16(data[pos+1 : pos+3]))
		pos += 3
		switch op {
		case 0:
			schedule(eng.Schedule(eng.Now()+d, interp))
		case 1:
			schedule(eng.After(d, interp))
		case 2:
			// Bound the period from below so hostile inputs cannot ask
			// for millions of ticks inside the fuzz horizon. A periodic
			// created while draining would never be stopped.
			if periodics < 8 && !draining {
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
		case 5:
			delayed(int(d) % len(delays))
		case 6:
			// Several callbacks sharing one delay.
			for n := 2 + int(d>>2)%3; n > 0; n-- {
				delayed(int(d) % len(delays))
			}
		}
	}
	phase := func() { record(eng.Now(), 0) }
	for i := 0; i < 4 && pos < len(data); i++ {
		interp()
	}
	phase()
	eng.RunUntil(1 << 17)
	phase()
	draining = true
	for i := range timers {
		stop(i)
	}
	phase()
	// Drain what the program scheduled past the horizon; with every
	// periodic stopped this terminates.
	eng.Run()
	phase()
	if eng.Pending() != 0 {
		t.Fatalf("queue not drained: %d events pending after Run", eng.Pending())
	}
	return trace
}

// FuzzEventQueue runs each program twice: with the delay ops on Engine.Delay
// queues and on a twin engine that schedules the same callbacks with
// Engine.After. Delay queues exist only to take those events out of the
// heap, so the two runs must execute the same (at, seq) stream and, before
// every event and after every phase, agree on Pending() and on every field
// of Checkpoint(), FreeEvents included.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	// The two programs below, and the checked-in corpus, predate delay ops:
	// their zero header keeps each decoding to its original op sequence.
	f.Add([]byte("\x00\x00\x00\x00" + "\x00\x10\x00\x04\x10\x00\x01\x08\x00\x02\x40\x00\x03\x01\x00"))
	f.Add([]byte("\x00\x00\x00\x00" + "\x02\x01\x00\x02\x01\x00\x04\x00\x00\x04\x00\x00\x03\x00\x00"))
	// Delays 5, 9 and 0. The queue for 5 empties when its only event fires
	// at 5, which schedules a one-shot at 105; that one refills it, and at
	// 110 a burst of three callbacks shares the queue for 0.
	f.Add([]byte("\x01\x05\x09\x00" +
		"\x05\x00\x00\x03\x00\x00\x03\x00\x00\x03\x00\x00" +
		"\x01\x64\x00\x05\x00\x00\x06\x05\x00\x05\x01\x00\x05\x00\x00"))
	// Delays 64, 9 and 0 mixed with a periodic, ties and a stop. At 64 the
	// periodic's tick, the queue for 64's head and a heap tie are due
	// together and must fire in seq order; the tick's own callback stops its
	// periodic, and the queue for 9 empties at 9 and refills from its own
	// callback.
	f.Add([]byte("\x01\x40\x09\x00" +
		"\x02\x00\x00\x05\x00\x00\x04\x40\x00\x06\x01\x00" +
		"\x05\x02\x00\x05\x01\x00\x01\x37\x00\x02\x40\x00" +
		"\x03\x00\x00\x05\x00\x00\x06\x02\x00\x04\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := runEventProgram(t, data, false)
		got := runEventProgram(t, data, true)
		if len(got) != len(want) {
			t.Fatalf("delay-queue run saw %d states, After run %d", len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("state %d: delay-queue run %+v, After run %+v", i, got[i], want[i])
			}
		}
	})
}
