package sim

import "fmt"

// killSignal is the panic payload used to unwind a killed process.
type killSignal struct{}

// Proc is a simulation process: ordinary imperative Go code running on its
// own goroutine, coscheduled with the engine so that exactly one of
// {engine, some process} executes at a time. A process blocks by parking
// (Sleep, Signal.Wait, ...), which returns control to the engine; the engine
// later resumes it from an event callback.
//
// All Proc methods must be called from the process's own goroutine, except
// Kill, Ended and Err, which are engine-side.
type Proc struct {
	eng     *Engine
	name    string
	resume  chan struct{}
	yield   chan struct{}
	started bool
	ended   bool
	killed  bool
	err     any
	// dispatchFn is the bound p.dispatch method value, created once so the
	// hot park/resume path (Sleep, Signal.Broadcast) does not allocate a
	// fresh method-value closure per event.
	dispatchFn func()

	// WaitAny state: the current wait's generation, whether it is still
	// unresolved, how it resolved, its timeout, and a pool of registrations
	// whose events have fired.
	waitGen       uint64
	waiting       bool
	waitSignaled  bool
	waitTimer     Timer
	onWaitTimeout func() // p.waitTimedOut, bound once
	waitRegs      []*waitReg
}

// Go spawns fn as a new process starting at the current virtual time. The
// name is used in diagnostics only.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	p.dispatchFn, p.onWaitTimeout = p.dispatch, p.waitTimedOut
	e.procs[p] = struct{}{}
	e.After(0, func() {
		if p.killed {
			p.finish()
			return
		}
		p.started = true
		go p.body(fn)
		p.dispatch()
	})
	return p
}

// finish marks a never-started process as ended.
func (p *Proc) finish() {
	p.ended = true
	delete(p.eng.procs, p)
}

// body is the process goroutine entry point.
func (p *Proc) body(fn func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); !ok {
				p.err = r
			}
		}
		p.ended = true
		delete(p.eng.procs, p)
		p.yield <- struct{}{}
	}()
	<-p.resume
	if p.killed {
		panic(killSignal{})
	}
	fn(p)
}

// dispatch transfers control from the engine to the process and waits for it
// to park or end. Engine-side only.
func (p *Proc) dispatch() {
	if p.ended {
		return
	}
	p.resume <- struct{}{}
	<-p.yield
	if p.err != nil {
		err := p.err
		p.err = nil
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, err))
	}
}

// park transfers control from the process back to the engine and blocks
// until the engine dispatches it again. Process-side only.
func (p *Proc) park() {
	p.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killSignal{})
	}
}

// Name returns the diagnostic name of the process.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine that owns the process.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Ended reports whether the process has finished (returned, panicked, or
// been killed).
func (p *Proc) Ended() bool { return p.ended }

// Sleep parks the process for d of virtual time. A non-positive d yields the
// processor for zero time (other events at the same instant run first).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.eng.Schedule(p.eng.now+d, p.dispatchFn)
	p.park()
}

// Kill forcibly terminates a parked or not-yet-started process. It is a
// no-op on an already-ended process. Killing the currently running process
// from itself is not supported; return from fn instead.
func (p *Proc) Kill() {
	if p.ended || p.killed {
		return
	}
	p.killed = true
	if !p.started {
		// Start event has not run yet; it will observe killed and finish
		// the process without launching its goroutine.
		return
	}
	// The strict engine/process handoff guarantees that a started, non-ended
	// process is parked on p.resume whenever any other code runs, so a
	// blocking resume is safe: the process unwinds via killSignal and yields.
	p.resume <- struct{}{}
	<-p.yield
}

// WaitAny parks p until s broadcasts or until d elapses, whichever comes
// first. It reports whether the signal fired before the timeout. A stale
// registration left behind by a timeout is inert: when s next broadcasts it
// still costs its zero-delay event, which does nothing.
//
// The wait allocates nothing once p has waited before. Its state lives on
// p, and s holds a pooled, generation-tagged registration (waitReg) instead
// of a fresh closure; the timeout is a callback bound once per process.
func (p *Proc) WaitAny(s *Signal, d Time) (signaled bool) {
	p.waitGen++
	p.waiting, p.waitSignaled = true, false
	s.Notify(p.newWaitReg().fire)
	p.waitTimer = p.eng.After(d, p.onWaitTimeout)
	p.park()
	return p.waitSignaled
}

// waitReg is one WaitAny registration on a Signal, tagged with the wait
// generation it belongs to. A registration is scheduled at most once (by
// the Broadcast that consumes it), and it returns to its process's pool
// when that event fires.
type waitReg struct {
	p    *Proc
	gen  uint64
	fire func() // signaled, bound once
}

// newWaitReg returns a pooled registration for p's current wait.
func (p *Proc) newWaitReg() *waitReg {
	var r *waitReg
	if n := len(p.waitRegs); n > 0 {
		r = p.waitRegs[n-1]
		p.waitRegs[n-1] = nil
		p.waitRegs = p.waitRegs[:n-1]
	} else {
		r = &waitReg{p: p}
		r.fire = r.signaled
	}
	r.gen = p.waitGen
	return r
}

// signaled is the event a Broadcast schedules for r. It resolves the wait r
// was made for, unless that wait already timed out (or a later one began):
// then r is stale and the event is a no-op.
func (r *waitReg) signaled() {
	p := r.p
	live := r.gen == p.waitGen && p.waiting
	p.waitRegs = append(p.waitRegs, r)
	if !live {
		return
	}
	p.waiting, p.waitSignaled = false, true
	p.waitTimer.Stop()
	p.dispatch()
}

// waitTimedOut is the timeout event of the current wait. A wait resolved by
// its signal stops this timer, so a timeout that fires is always current.
func (p *Proc) waitTimedOut() {
	if !p.waiting {
		return
	}
	p.waiting = false
	p.dispatch()
}

// Signal is a broadcast-style condition: processes park on it with Wait and
// are released together by Broadcast. There is no payload and no memory: a
// Broadcast with no waiters is lost, so callers re-check their condition in
// a loop, exactly like sync.Cond.
type Signal struct {
	eng     *Engine
	waiters []*Proc
	funcs   []func()
}

// NewSignal returns a Signal bound to e.
func NewSignal(e *Engine) *Signal { return &Signal{eng: e} }

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Notify registers fn to be called (as an immediate event) on the next
// Broadcast. One-shot, callback flavour of Wait for event-style code.
func (s *Signal) Notify(fn func()) { s.funcs = append(s.funcs, fn) }

// Broadcast releases all current waiters. Each resumes via its own
// zero-delay event, preserving determinism regardless of caller context.
// Scheduling runs no callback, so nothing can register while the lists are
// walked, and both are reused for the next round.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		s.eng.After(0, w.dispatchFn)
	}
	for _, fn := range s.funcs {
		s.eng.After(0, fn)
	}
	clear(s.waiters)
	s.waiters = s.waiters[:0]
	clear(s.funcs)
	s.funcs = s.funcs[:0]
}
