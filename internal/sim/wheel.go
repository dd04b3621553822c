package sim

// periodic is a recurring timer created with Every. Its users are few (a
// workload tenant's SLO window; the ResEx interval, epochs and monitor
// polls are Procs), and they live outside the event heap
// in a dedicated wheel: firing a tick advances nextAt and reassigns seq in
// place — no heap push/pop, no allocation, ever.
type periodic struct {
	eng     *Engine
	period  Time
	nextAt  Time
	seq     uint64
	fn      func()
	stopped bool
	firing  bool // true while fn runs, so Stop-from-inside-the-tick is safe
}

// wheelMin returns the earliest pending periodic by (nextAt, seq), or nil
// when the wheel is empty. The wheel holds a handful of tickers, so a linear
// scan beats any ordered structure's maintenance cost. The engine caches the
// result in wmin for the run loop, and rescans only when the wheel changes:
// Every adding a timer, wheelRemove dropping one, a fired tick moving its
// nextAt.
func (e *Engine) wheelMin() *periodic {
	var best *periodic
	for _, p := range e.wheel {
		if best == nil || p.nextAt < best.nextAt ||
			(p.nextAt == best.nextAt && p.seq < best.seq) {
			best = p
		}
	}
	return best
}

// wheelRemove unlinks p. Order within the slice is irrelevant: wheelMin
// compares (nextAt, seq), so swap-removal cannot perturb determinism.
func (e *Engine) wheelRemove(p *periodic) {
	for i, q := range e.wheel {
		if q == p {
			n := len(e.wheel) - 1
			e.wheel[i] = e.wheel[n]
			e.wheel[n] = nil
			e.wheel = e.wheel[:n]
			e.wmin = e.wheelMin()
			return
		}
	}
}

// fireWheel executes the pending tick of p: run the callback, then
// reschedule in place unless the timer stopped itself. The seq for the next
// occurrence is assigned after fn runs — exactly where the old
// heap-rescheduling implementation assigned it — so event ordering, and with
// it every seeded experiment output, is unchanged byte for byte.
func (e *Engine) fireWheel(p *periodic) {
	e.now = p.nextAt
	e.stepped++
	if e.stepHook != nil && e.stepped&e.hookMask == 0 {
		e.stepHook(p.nextAt, p.seq)
	}
	p.firing = true
	p.fn()
	p.firing = false
	if p.stopped {
		e.wheelRemove(p)
		return
	}
	e.seq++
	p.seq = e.seq
	p.nextAt += p.period
	e.wmin = e.wheelMin()
}
