package sim

import "fmt"

// Timer is a handle to a scheduled event; it can be canceled before it
// fires. Timers are plain values — Schedule and After return them on the
// stack, so the steady-state schedule/fire path performs no heap
// allocation. The zero Timer is inert: Stop reports false, When reports 0.
//
// For recurring timers created with Every, Stop also prevents any further
// rescheduling, even when called from inside the tick callback.
type Timer struct {
	eng *Engine
	ev  *event
	per *periodic
	at  Time
	gen uint64
}

// live reports whether the one-shot occurrence this Timer refers to is still
// scheduled (the pooled event may have been consumed and reused since).
func (t *Timer) live() bool { return t.ev != nil && t.ev.gen == t.gen }

// Stop cancels the timer. It reports whether a pending occurrence was
// canceled. Canceled one-shot events are removed from the heap immediately
// and recycled, so a cancel-heavy workload's queue and memory stay bounded
// by what is genuinely pending.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if p := t.per; p != nil {
		if p.stopped {
			return false
		}
		p.stopped = true
		if p.firing {
			// Stopped from inside its own tick: the pending occurrence is
			// the one currently executing, so nothing future was canceled;
			// the engine sees stopped after fn returns and drops the timer.
			return false
		}
		p.eng.wheelRemove(p)
		return true
	}
	if !t.live() {
		return false
	}
	ev := t.eng.events.removeAt(t.ev.index)
	t.eng.release(ev)
	return true
}

// Active reports whether the timer still has a pending occurrence.
func (t *Timer) Active() bool {
	if t == nil {
		return false
	}
	if t.per != nil {
		return !t.per.stopped
	}
	return t.live()
}

// When returns the virtual time the timer is (or was last) scheduled for:
// the pending occurrence while one exists, the fire time after a one-shot
// fired, the final tick time after a recurring timer stopped. The zero
// Timer reports 0.
func (t *Timer) When() Time {
	if t == nil {
		return 0
	}
	if t.per != nil {
		return t.per.nextAt
	}
	return t.at
}

// Engine is a discrete-event simulation executor. The zero value is not
// usable; create engines with New.
//
// Engines are strictly single-threaded: events run one at a time on the
// goroutine that called Run/RunUntil, and processes created with Go are
// coscheduled so only one of them (or the engine) executes at any moment.
//
// The hot path is allocation-free: events are concrete structs recycled
// through a slab-allocated free list, the queue is an inlined 4-ary indexed
// heap (no container/heap interface boxing), recurring timers reschedule in
// place on a wheel without touching the heap, and Timer handles are values.
// Events scheduled a constant delay ahead — the per-MTU fabric and HCA
// stages — skip the heap too: they wait in one FIFO per delay (see Delay),
// and the run loop takes the earliest of the heap's top, those FIFOs' heads
// and the wheel's minimum.
type Engine struct {
	now      Time
	events   eventHeap
	delays   []*Delay // one per distinct delay, in creation order
	wheel    []*periodic
	wmin     *periodic // earliest wheel entry, nil when empty (wheelMin)
	free     []*event
	seq      uint64
	procs    map[*Proc]struct{}
	stepped  uint64
	stepHook func(at Time, seq uint64)
	hookMask uint64
	breaks   []breakpoint
}

// breakpoint is an out-of-band callback fired by the run loops once the
// clock is about to pass at. Breakpoints live outside the event queue on
// purpose: arming one consumes no seq number and occupies no heap slot, so
// an armed run schedules and executes exactly the same events as an unarmed
// one — the property that lets snapshot capture/verification observe a run
// without perturbing it.
type breakpoint struct {
	at Time
	fn func()
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far (a cheap progress and
// determinism probe).
func (e *Engine) Steps() uint64 { return e.stepped }

// SetStepHook installs fn to observe every executed event's (at, seq) key
// just before its callback runs — the foundation for invariant auditing.
// The hook is an observer only: it must not schedule, cancel, or otherwise
// touch the engine, so installing one can never perturb event ordering.
// Passing nil clears the hook; installing over an existing hook panics, so
// two auditors cannot silently shadow each other. When no hook is set the
// hot path pays a single nil check.
func (e *Engine) SetStepHook(fn func(at Time, seq uint64)) {
	e.setHook(0, fn)
}

// SetSampledStepHook installs fn to observe the (at, seq) key of every
// every-th executed event (the stride must be a power of two so the hot
// path pays one mask test against the step counter instead of an indirect
// call per event — that difference is what keeps full-run auditing inside
// its overhead budget). Shares the single hook slot with SetStepHook: the
// same shadowing and nil-clearing rules apply.
func (e *Engine) SetSampledStepHook(every uint64, fn func(at Time, seq uint64)) {
	if every == 0 || every&(every-1) != 0 {
		panic(fmt.Sprintf("sim: SetSampledStepHook stride %d is not a power of two", every))
	}
	e.setHook(every-1, fn)
}

func (e *Engine) setHook(mask uint64, fn func(at Time, seq uint64)) {
	if fn != nil && e.stepHook != nil {
		panic("sim: SetStepHook over an existing hook (clear it with nil first)")
	}
	e.stepHook = fn
	if fn == nil {
		mask = 0
	}
	e.hookMask = mask
}

// Schedule registers fn to run at the absolute virtual time at. Scheduling in
// the past (before Now) panics: it would silently reorder causality.
// Scheduling at exactly Now is allowed and fires after the current event.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	ev := e.acquire()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.events.push(ev)
	return Timer{eng: e, ev: ev, at: at, gen: ev.gen}
}

// After registers fn to run d from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Every schedules fn at now+d, now+2d, ... until the returned Timer is
// stopped. fn observes the tick time via Engine.Now. The recurring timer
// lives on the engine's wheel: each tick reschedules in place, so it never
// touches the heap and never allocates. The simulator's own periodic work
// (the ResEx interval, epochs, monitor polls) runs in Procs instead; Every
// serves the workload tenants' SLO window.
func (e *Engine) Every(d Time, fn func()) Timer {
	if d <= 0 {
		panic("sim: Every requires a positive period")
	}
	e.seq++
	p := &periodic{eng: e, period: d, nextAt: e.now + d, seq: e.seq, fn: fn}
	e.wheel = append(e.wheel, p)
	e.wmin = e.wheelMin()
	return Timer{per: p}
}

// Breakpoint registers fn to run once every event with timestamp <= at has
// executed — the same boundary RunUntil(at) stops on. Unlike Schedule it
// consumes no seq number and places nothing on the heap, so an armed engine
// runs event-for-event identically to an unarmed one; fn must not schedule,
// cancel, or otherwise drive the engine. fn may arm a later breakpoint (a
// periodic observer re-arms itself at Now()+period this way): one due
// before the next event fires in the same pass, and Run still returns once
// its last event has run, leaving the re-armed one unfired. Breakpoints
// fire in (at, arming order). Arming in the past panics like Schedule does.
func (e *Engine) Breakpoint(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: breakpoint at %v before now %v", at, e.now))
	}
	i := len(e.breaks)
	for i > 0 && e.breaks[i-1].at > at {
		i--
	}
	e.breaks = append(e.breaks, breakpoint{})
	copy(e.breaks[i+1:], e.breaks[i:])
	e.breaks[i] = breakpoint{at: at, fn: fn}
}

// NextBreak returns the earliest armed breakpoint's time. This is the
// engine half of the sharded-run lookahead negotiation (internal/simpar):
// a coordinator may observe where captures will fire, but it never needs
// to cap its windows on them — breakpoints are seq-neutral and fire at a
// deterministic position inside whatever window contains them (after the
// engine's events at T, before any cross-host deliveries at T), so an
// armed sharded run executes event-for-event like an unarmed one. The
// same holds for SetStepHook/SetSampledStepHook observers: both are
// engine-local and see the identical event sequence at any shard count.
func (e *Engine) NextBreak() (Time, bool) {
	if len(e.breaks) == 0 {
		return 0, false
	}
	return e.breaks[0].at, true
}

// fireBreaks fires, in order, every armed breakpoint with at <= through,
// advancing the clock to each breakpoint's time. step calls it with one
// less than the next event's timestamp — so a breakpoint at T fires only
// once no event with timestamp <= T remains, mirroring RunUntil(T).
func (e *Engine) fireBreaks(through Time) {
	for len(e.breaks) > 0 && e.breaks[0].at <= through {
		b := e.breaks[0]
		copy(e.breaks, e.breaks[1:])
		e.breaks[len(e.breaks)-1] = breakpoint{}
		e.breaks = e.breaks[:len(e.breaks)-1]
		if e.now < b.at {
			e.now = b.at
		}
		b.fn()
	}
}

// step executes the earliest pending event if its timestamp is <= limit,
// after firing the breakpoints due before it. It finds that event once,
// over the heap's top, the delay queues' heads and the wheel's minimum,
// and reports whether it ran one.
func (e *Engine) step(limit Time) bool {
	at, seq := MaxTime, noSeq
	if len(e.events) > 0 {
		at, seq = e.events[0].at, e.events[0].seq
	}
	var dq *Delay
	for _, q := range e.delays {
		if q.headAt < at || (q.headAt == at && q.headSeq < seq) {
			at, seq, dq = q.headAt, q.headSeq, q
		}
	}
	w := e.wmin
	if w != nil && (w.nextAt < at || (w.nextAt == at && w.seq < seq)) {
		at, seq = w.nextAt, w.seq
	} else {
		w = nil
	}
	if seq == noSeq || at > limit {
		return false
	}
	if len(e.breaks) > 0 && e.breaks[0].at < at {
		// Pick again: a callback that breaks the Breakpoint contract and
		// drives the engine must not leave this step popping a stale choice.
		e.fireBreaks(at - 1)
		return e.step(limit)
	}
	if w != nil {
		e.fireWheel(w)
		return true
	}
	var ev *event
	if dq != nil {
		ev = dq.pop()
	} else {
		ev = e.events.popMin()
	}
	e.now = at
	e.stepped++
	fn := ev.fn
	e.release(ev)
	if e.stepHook != nil && e.stepped&e.hookMask == 0 {
		e.stepHook(at, seq)
	}
	fn()
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.step(MaxTime) {
	}
}

// RunUntil executes events with timestamps <= t, fires the breakpoints
// armed at or before t, then advances the clock to exactly t (even if no
// event lands there).
func (e *Engine) RunUntil(t Time) {
	for e.step(t) {
	}
	if len(e.breaks) > 0 {
		e.fireBreaks(t)
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of scheduled events: the heap holds only live
// one-shots (cancelation removes in place), the delay queues hold theirs,
// and every wheel entry has exactly one pending occurrence.
func (e *Engine) Pending() int {
	n := len(e.events) + len(e.wheel)
	for _, q := range e.delays {
		n += q.q.Len()
	}
	return n
}

// Shutdown kills every live process so their goroutines exit. Call at the end
// of a simulation that still has parked processes.
func (e *Engine) Shutdown() {
	for p := range e.procs {
		p.Kill()
	}
}
