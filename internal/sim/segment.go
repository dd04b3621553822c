package sim

import (
	"fmt"

	"resex/internal/ring"
)

// Segment is a source of credited events: events a model advances itself,
// in closed form, instead of dispatching each through the run loop. The
// fabric uses one for an MTU run that a link serves back to back (see
// package fabric). Each of its pending events waits on a Lane, holds a
// pooled event and carries the (at, seq) key the per-event path would give
// it, so Pending, Checkpoint and the pool occupancy are the same as if it
// had been scheduled with After.
//
// The run loop treats a segment's earliest event like the heap's top or a
// delay queue's head. When it is the earliest of all, the loop calls the
// segment's advance function once with the key of the earliest other event
// and the time limit (the RunUntil bound or the next breakpoint, whichever
// is earlier). The model then credits its events in (at, seq) order while
// they come before both: each Credit counts the event in Steps and
// Credited, moves the clock to it and shows it to the step hook, exactly
// where dispatching it would have. A credited event's effects are the
// model's to apply; events it schedules take their seq at that moment,
// through Lane.After, so every key stays the one the per-event path gives.
// CreditPeriods credits whole periods of a steady pattern at once.
//
// Materialize turns a lane's events back into ordinary engine events with
// their keys, when the model hands its state back to the per-event path.
type Segment struct {
	// Key of the earliest held event, by value for the run loop's scan:
	// (MaxTime, noSeq) while the segment holds none.
	headAt  Time
	headSeq uint64
	eng     *Engine
	lanes   []*Lane
	busy    []*Lane // the lanes holding events, in no particular order
	head    *Lane   // the busy lane with the earliest head key, nil if none
	held    int     // events on all lanes
	on      bool    // listed in eng.segs
	advance func(boundAt Time, boundSeq uint64, limit Time)
}

// Lane is a FIFO of one segment's pending events. Its events must be
// scheduled in (at, seq) order, as they are when every one is the same
// delay after its scheduling instant.
type Lane struct {
	// Key of the head event, by value for the segment's scan.
	headAt  Time
	headSeq uint64
	seg     *Segment
	i       int // position in seg.lanes
	busy    int // position in seg.busy, -1 while empty
	q       ring.Queue[*event]
}

// NewSegment returns an idle segment whose events the run loop hands to
// advance. advance must credit at least the earliest held event, which the
// run loop has found to come before (boundAt, boundSeq) and at or before
// limit, and it must credit no event at or after that key or later than
// limit.
func (e *Engine) NewSegment(advance func(boundAt Time, boundSeq uint64, limit Time)) *Segment {
	return &Segment{headAt: MaxTime, headSeq: noSeq, eng: e, advance: advance}
}

// Credited returns how many of the events counted in Steps were credited by
// a segment instead of dispatched: Steps minus Credited events ran a
// callback.
func (e *Engine) Credited() uint64 { return e.credited }

// Lane adds a lane to the segment. Head names it by its position among the
// segment's lanes, counting from 0 in the order they were added.
func (s *Segment) Lane() *Lane {
	l := &Lane{seg: s, i: len(s.lanes), busy: -1}
	s.lanes = append(s.lanes, l)
	return l
}

// Len returns the number of events waiting on the lane.
func (l *Lane) Len() int { return l.q.Len() }

// At returns the key of the lane's i-th event from its head.
func (l *Lane) At(i int) (Time, uint64) {
	ev := l.q.At(i)
	return ev.at, ev.seq
}

// After schedules one event d from now on the lane, taking its seq and its
// pooled event exactly where Engine.After would.
func (l *Lane) After(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s := l.seg
	e := s.eng
	e.seq++
	ev := e.acquire()
	ev.at = e.now + d
	ev.seq = e.seq
	l.q.Push(ev)
	s.held++
	if !s.on {
		s.on = true
		e.segs = append(e.segs, s)
	}
	if l.q.Len() == 1 {
		l.headAt, l.headSeq = ev.at, ev.seq
		l.busy = len(s.busy)
		s.busy = append(s.busy, l)
		if ev.at < s.headAt || (ev.at == s.headAt && ev.seq < s.headSeq) {
			s.head, s.headAt, s.headSeq = l, ev.at, ev.seq
		}
	}
}

// Head returns the position of the lane of the segment's earliest event
// and that event's key; -1 when the segment holds none.
func (s *Segment) Head() (int, Time, uint64) {
	if s.head == nil {
		return -1, s.headAt, s.headSeq
	}
	return s.head.i, s.headAt, s.headSeq
}

// Credit counts the segment's earliest event as executed: the clock moves
// to it, Steps and Credited count it, its pooled event is released and the
// step hook sees its key, in the order dispatching it would do all that.
// The caller then applies its effects.
func (s *Segment) Credit() {
	e := s.eng
	ev := s.head.pop()
	s.held--
	at, seq := ev.at, ev.seq
	e.now = at
	e.stepped++
	e.credited++
	e.release(ev)
	if e.stepHook != nil && e.stepped&e.hookMask == 0 {
		e.stepHook(at, seq)
	}
	s.sync()
}

// Seq returns the last seq the engine gave out, the base from which the
// events a segment schedules next take theirs.
func (s *Segment) Seq() uint64 { return s.eng.seq }

// Room returns how many periods of events events each, every one
// scheduling one event, the segment may credit at once with CreditPeriods:
// as many as end before the step hook's next sampled step, and none where
// the pool could run dry or overflow within a period, which would make its
// occupancy differ from the per-event path's.
func (s *Segment) Room(events uint64) uint64 {
	e := s.eng
	if free := len(e.free); free < int(events) || free+int(events) > maxFreeEvents {
		return 0
	}
	if e.stepHook == nil {
		return ^uint64(0)
	}
	return (e.hookMask - e.stepped&e.hookMask) / events
}

// Rekey moves the lane's i-th event to the key (at, seq). The caller moves
// every held event to the key it has after the periods CreditPeriods then
// credits, keeping each lane in (at, seq) order.
func (l *Lane) Rekey(i int, at Time, seq uint64) {
	ev := l.q.At(i)
	ev.at, ev.seq = at, seq
}

// CreditPeriods credits n periods of events events each, every one of
// which scheduled one event, the last at now: Steps, Credited and the seq
// counter move by n*events, as that many Credit and Lane.After calls would
// move them, and the clock moves to now. n must not exceed Room(events).
// The caller has rekeyed the held events and applies the periods' effects.
func (s *Segment) CreditPeriods(n, events uint64, now Time) {
	e := s.eng
	k := n * events
	e.seq += k
	e.stepped += k
	e.credited += k
	e.now = now
	for _, l := range s.busy {
		ev := *l.q.Front()
		l.headAt, l.headSeq = ev.at, ev.seq
	}
	s.sync()
}

// Materialize moves every event of the lane onto the engine's heap with
// its key, to run fn when it fires.
func (l *Lane) Materialize(fn func()) {
	s := l.seg
	for l.q.Len() > 0 {
		ev := l.pop()
		ev.fn = fn
		s.eng.events.push(ev)
		s.held--
	}
	s.sync()
}

// pop removes the lane's head event, and takes the lane off the busy list
// once it is empty.
func (l *Lane) pop() *event {
	s := l.seg
	ev := l.q.Pop()
	if l.q.Len() > 0 {
		next := *l.q.Front()
		l.headAt, l.headSeq = next.at, next.seq
		return ev
	}
	i, n := l.busy, len(s.busy)-1
	s.busy[i] = s.busy[n]
	s.busy[i].busy = i
	s.busy[n] = nil
	s.busy = s.busy[:n]
	l.busy = -1
	return ev
}

// sync finds the busy lane with the earliest head and loads its key for
// the run loop, and takes the segment off the run loop's list once it
// holds none. A segment has few busy lanes, so a scan beats keeping them
// ordered.
func (s *Segment) sync() {
	var head *Lane
	at, seq := MaxTime, noSeq
	for _, l := range s.busy {
		if l.headAt < at || (l.headAt == at && l.headSeq < seq) {
			head, at, seq = l, l.headAt, l.headSeq
		}
	}
	s.head, s.headAt, s.headSeq = head, at, seq
	if head == nil && s.on {
		e := s.eng
		for i, g := range e.segs {
			if g == s {
				n := len(e.segs) - 1
				e.segs[i] = e.segs[n]
				e.segs[n] = nil
				e.segs = e.segs[:n]
				break
			}
		}
		s.on = false
	}
}

// advanceSegment hands the run loop's turn to sg, the source of the
// earliest pending event: it finds the earliest other event, and the
// earlier of limit and the next breakpoint, and lets sg credit its events
// up to them.
func (e *Engine) advanceSegment(sg *Segment, limit Time) {
	at, seq, _, _ := e.earliest(sg)
	if len(e.breaks) > 0 && e.breaks[0].at < limit {
		limit = e.breaks[0].at
	}
	sg.advance(at, seq, limit)
}
