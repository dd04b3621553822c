package experiments

import (
	"resex/internal/sim"
	"resex/internal/snapshot"
)

// observe attaches the two pure observers an experiment engine can carry —
// the invariant auditor (Options.Audit) and the snapshot capture/verify
// breakpoint (Options.Checkpoint) — to the rig src lists, and returns the
// function that finalizes the audit (run it after the simulation, before
// Shutdown). With both disabled it returns a no-op, so plain runs pay
// nothing beyond a nil check. An audited capture also exports the auditor's
// accumulators, so it must be restored under -audit, and vice versa. The
// breakpoint reads src when it fires, so a driver may still attach objects
// it builds later (the fault injector). Drivers with one engine per site
// call observe once per engine in build order, which keeps capture and
// replay ordinals in step and closes the per-site auditors in a fixed
// order.
func (o Options) observe(eng *sim.Engine, src *snapshot.Source) func() {
	stop := func() {}
	if o.Audit != nil {
		stop = src.Audit(eng, o.Audit).Close
	}
	if o.Checkpoint != nil {
		o.Checkpoint.Arm(eng, o.PointSeed, src)
	}
	return stop
}
