package sim

// periodic is a recurring timer created with Every. Its pending
// occurrence is ev, which waits on the heap like a one-shot but never
// enters the pool: Checkpoint lists it in Wheel, not in Events, and firing
// it neither releases nor acquires an event.
type periodic struct {
	ev      event
	eng     *Engine
	period  Time
	fn      func()
	stopped bool
}

// tick runs the occurrence the run loop just took off the heap, then puts
// the next one back a period later unless the timer stopped itself. The
// next occurrence takes its seq after fn runs, so events fn schedules come
// before it at the same instant.
func (p *periodic) tick() {
	p.fn()
	e := p.eng
	if p.stopped {
		e.unlist(p)
		return
	}
	e.seq++
	p.ev.seq = e.seq
	p.ev.at += p.period
	e.events.push(&p.ev)
}

// unlist drops the stopped timer p from the engine's list. Swap-removal
// sets the order Checkpoint reports the remaining timers in.
func (e *Engine) unlist(p *periodic) {
	for i, q := range e.pers {
		if q == p {
			n := len(e.pers) - 1
			e.pers[i] = e.pers[n]
			e.pers[n] = nil
			e.pers = e.pers[:n]
			return
		}
	}
}
