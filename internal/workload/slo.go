package workload

import (
	"resex/internal/sim"
	"resex/internal/stats"
)

// SLOSpec declares a tenant's latency objective in microseconds. A zero
// target is unconstrained; a tenant with no target always attains.
type SLOSpec struct {
	// P99Us is the per-window p99 target (µs).
	P99Us float64
	// Window is the attainment evaluation period: at each boundary the
	// window's latency sketch is scored against the target and the whole
	// window counts as attained or violated. Default 20 ms.
	Window sim.Time
}

func (s SLOSpec) withDefaults() SLOSpec {
	if s.Window <= 0 {
		s.Window = 20 * sim.Millisecond
	}
	return s
}

// Constrained reports whether the target is set.
func (s SLOSpec) Constrained() bool { return s.P99Us > 0 }

// sloTracker scores time-weighted SLO attainment: virtual time is divided
// into evaluation windows, each window is attained or violated as a whole,
// and attainment is the attained fraction of elapsed time. Weighting by
// time rather than by request matters under overload — a stalled tenant
// completes almost nothing, so a request-weighted average would barely
// register the outage it is living through.
type sloTracker struct {
	spec     SLOSpec
	win      *stats.QuantileSketch // latencies completed this window
	total    *stats.QuantileSketch // latencies since the last reset
	attained sim.Time
	violated sim.Time
	lastEval sim.Time
	origin   sim.Time // where scoring (re)started; the bookkeeping anchor
}

func newSLOTracker(spec SLOSpec) *sloTracker {
	return &sloTracker{
		spec:  spec,
		win:   stats.NewQuantileSketch(0),
		total: stats.NewQuantileSketch(0),
	}
}

// observe records one completed request's latency (µs).
func (t *sloTracker) observe(latUs float64) {
	t.win.Add(latUs)
	t.total.Add(latUs)
}

// endWindow closes the window ending at now. oldest is the arrival stamp of
// the oldest request still waiting (queued or in flight); has reports
// whether one exists.
func (t *sloTracker) endWindow(now, oldest sim.Time, has bool) {
	dur := now - t.lastEval
	if dur <= 0 {
		return
	}
	t.lastEval = now
	viol := false
	switch {
	case t.win.Count() > 0:
		viol = t.spec.P99Us > 0 && t.win.Quantile(0.99) > t.spec.P99Us
	case has && t.spec.Constrained():
		// Nothing completed all window. If the oldest waiting request has
		// already outlived the target, the tenant is stalled and the window
		// is a violation — without this, a wedged tenant would score
		// perfect attainment by never completing anything.
		viol = (now - oldest).Microseconds() > t.spec.P99Us
	}
	if viol {
		t.violated += dur
	} else {
		t.attained += dur
	}
	t.win.Reset()
}

// attainment returns the attained share of scored time, in percent (100
// when nothing has been scored yet).
func (t *sloTracker) attainment() float64 {
	total := t.attained + t.violated
	if total == 0 {
		return 100
	}
	return 100 * float64(t.attained) / float64(total)
}

// reset forgets all scores and restarts the clock at now.
func (t *sloTracker) reset(now sim.Time) {
	t.win.Reset()
	t.total.Reset()
	t.attained, t.violated = 0, 0
	t.lastEval = now
	t.origin = now
}

// rebase restarts the scoring clock at now without discarding sketches —
// used when a tenant starts, so attained+violated always equals
// lastEval-origin (the invariant auditor's bookkeeping identity).
func (t *sloTracker) rebase(now sim.Time) {
	t.lastEval = now
	t.origin = now
}
