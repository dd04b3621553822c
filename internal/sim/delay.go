package sim

import (
	"fmt"

	"resex/internal/ring"
)

// Delay is the engine's FIFO of events scheduled a fixed d after they were
// scheduled. Now never decreases and seq only grows, so events that share
// one d are in (at, seq) order in the order they were scheduled, whoever
// scheduled them: one queue per distinct delay holds the events of every
// link, switch and QP that uses it, and the run loop compares only its head
// with the heap's top. The per-MTU fabric and HCA stages, whose delays are
// constants, schedule through a Delay and never touch the heap.
//
// A Delay's events come from the engine's pool and take their seq at the
// point Engine.After would, so an engine that schedules through a Delay
// executes, checkpoints and counts exactly the events an engine that calls
// After(d) does. They cannot be canceled: After returns no Timer.
type Delay struct {
	// Key of the head event, stored by value for the run loop's scan:
	// (MaxTime, noSeq) while the queue is empty.
	headAt  Time
	headSeq uint64
	eng     *Engine
	d       Time
	q       ring.Queue[*event]
}

// noSeq is the seq of an empty source: later than every real event's.
const noSeq = ^uint64(0)

// Delay returns the engine's queue of events scheduled d from now, creating
// it on first use. Call it once per site at construction, not per event.
// A negative d panics.
func (e *Engine) Delay(d Time) *Delay {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	for _, q := range e.delays {
		if q.d == d {
			return q
		}
	}
	q := &Delay{headAt: MaxTime, headSeq: noSeq, eng: e, d: d}
	e.delays = append(e.delays, q)
	return q
}

// After registers fn to run d from now, as Engine.After(d, fn) would.
func (q *Delay) After(fn func()) {
	e := q.eng
	e.seq++
	ev := e.acquire()
	ev.at = e.now + q.d
	ev.seq = e.seq
	ev.fn = fn
	if q.q.Len() == 0 {
		q.headAt, q.headSeq = ev.at, ev.seq
	}
	q.q.Push(ev)
}

// pop removes the head event and loads the next head's key.
func (q *Delay) pop() *event {
	ev := q.q.Pop()
	if q.q.Len() > 0 {
		next := *q.q.Front()
		q.headAt, q.headSeq = next.at, next.seq
	} else {
		q.headAt, q.headSeq = MaxTime, noSeq
	}
	return ev
}
