package workload

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/hca"
	"resex/internal/ring"
	"resex/internal/sim"
	"resex/internal/stats"
	"resex/internal/trace"
	"resex/internal/xen"
)

// TenantStats is a snapshot of one tenant's measured behavior since the
// last reset.
type TenantStats struct {
	Arrivals  int64 // generated arrivals (open loop: admitted + shed)
	Shed      int64 // arrivals rejected by the queue cap
	Issued    int64 // requests posted to the HCA
	Completed int64 // responses received and measured
	Queued    int   // admitted arrivals currently waiting to post
	Inflight  int   // requests currently posted and unanswered

	OfferedPerSec   float64 // arrival rate over the measured interval
	CompletedPerSec float64
	Latency         stats.Summary // end-to-end µs
	P50, P99, P999  float64       // µs, from the cumulative sketch
	AttainPct       float64       // time-weighted SLO attainment, percent
}

// Tenant drives one client→server RPC lifecycle end to end. The driver is a
// single guest thread on the client VM's VCPU that interleaves three duties:
// absorbing due arrivals (open loop) or user re-arrivals (closed loop),
// posting queued requests while the in-flight window has room, and reaping
// completions. When none of those is actionable it parks on the work signal
// with a timeout at the next arrival — event-driven, so an idle tenant costs
// no simulated CPU, unlike the busy-polling benchex client.
type Tenant struct {
	// Spec is the effective (defaulted) specification.
	Spec TenantSpec
	// HostIdx indexes Engine.Workers: where the server VM lives.
	HostIdx int

	eng     *sim.Engine
	vcpu    *xen.VCPU
	rng     *sim.Rand
	gen     *trace.Generator
	conn    *benchex.Conn
	scq     *hca.CQ
	rcq     *hca.CQ
	scratch []byte

	work        *sim.Signal
	queue       ring.Queue[sim.Time] // arrival stamps awaiting issue
	outstanding ring.Queue[sim.Time] // arrival stamps of posted requests
	nextArrival sim.Time
	running     bool
	proc        *sim.Proc
	ticker      sim.Timer

	slo       *sloTracker
	latency   stats.Summary
	arrivals  int64
	shed      int64
	issued    int64
	completed int64
	resetAt   sim.Time
}

// newTenant builds the client-side half of a tenant on the given VCPU and
// protection domain: a BenchEx connection with a Window+2-slot receive
// ring, on two CQs of its own.
func newTenant(eng *sim.Engine, vcpu *xen.VCPU, pd *hca.PD, spec TenantSpec) (*Tenant, error) {
	t := &Tenant{
		Spec:    spec,
		eng:     eng,
		vcpu:    vcpu,
		rng:     sim.NewRand(spec.Seed ^ 0x7ead),
		gen:     trace.NewGenerator(spec.Seed),
		work:    sim.NewSignal(eng),
		scratch: make([]byte, trace.RequestSize),
		slo:     newSLOTracker(spec.SLO),
	}
	var err error
	if t.conn, err = benchex.NewConn(pd, spec.BufferSize, spec.Window+2, spec.Window+2); err != nil {
		return nil, fmt.Errorf("workload: %s: %w", spec.Name, err)
	}
	t.scq = pd.CreateCQ(1024)
	t.rcq = pd.CreateCQ(1024)
	if _, err := t.conn.Open(t.scq, t.rcq); err != nil {
		return nil, err
	}
	return t, nil
}

// Endpoint returns the tenant's client QP for connection wiring.
func (t *Tenant) Endpoint() *hca.QP { return t.conn.QP() }

// Running reports whether the tenant's traffic driver is live.
func (t *Tenant) Running() bool { return t.running }

// Sketch exposes the tenant's cumulative latency sketch (µs) so callers can
// merge per-tenant distributions deterministically.
func (t *Tenant) Sketch() *stats.QuantileSketch { return t.slo.total }

// SLOAudit exposes the tracker's raw bookkeeping for invariant checking:
// every scored window lands in exactly one bucket, so
// attained + violated == lastEval - origin must hold at all times.
func (t *Tenant) SLOAudit() (attained, violated, origin, lastEval sim.Time) {
	return t.slo.attained, t.slo.violated, t.slo.origin, t.slo.lastEval
}

// start launches the driver and the SLO window ticker.
func (t *Tenant) start() {
	if t.running {
		return
	}
	t.running = true
	t.resetAt = t.eng.Now()
	t.slo.rebase(t.eng.Now())
	// Relay receive completions into the work signal. The CQ signal
	// delivers one Notify per broadcast, so the relay re-registers itself;
	// it goes quiet once the tenant stops.
	var relay func()
	relay = func() {
		if !t.running {
			return
		}
		t.work.Broadcast()
		t.rcq.Signal().Notify(relay)
	}
	t.rcq.Signal().Notify(relay)
	t.proc = t.eng.Go(t.Spec.Name+"-drv", t.run)
	t.ticker = t.eng.Every(t.Spec.SLO.Window, t.tickWindow)
}

// stop halts the driver; in-flight state is left as-is.
func (t *Tenant) stop() {
	if !t.running {
		return
	}
	t.running = false
	t.ticker.Stop()
	if t.proc != nil && !t.proc.Ended() {
		t.proc.Kill()
	}
}

// run is the driver loop. Priorities per wakeup: absorb due arrivals, reap
// one completion, issue one queued request, then park.
func (t *Tenant) run(p *sim.Proc) {
	now := t.eng.Now()
	if t.Spec.Arrivals != nil {
		t.nextArrival = now + t.Spec.Arrivals.Gap(t.rng)
	} else {
		for i := 0; i < t.Spec.Closed.Concurrency; i++ {
			t.enqueue(now)
		}
	}
	for t.running {
		now = t.eng.Now()
		if t.Spec.Arrivals != nil {
			for t.nextArrival <= now {
				t.arrive(t.nextArrival)
				t.nextArrival += t.Spec.Arrivals.Gap(t.rng)
			}
		}
		if cqe, ok := t.rcq.Poll(); ok {
			t.complete(p, cqe)
			// Send completions precede the response; reap without blocking.
			t.scq.Drain()
			continue
		}
		if t.queue.Len() > 0 && t.outstanding.Len() < t.Spec.Window {
			t.issue(p)
			continue
		}
		if t.Spec.Arrivals != nil {
			d := t.nextArrival - t.eng.Now()
			if d <= 0 {
				continue
			}
			p.WaitAny(t.work, d)
		} else {
			t.work.Wait(p)
		}
	}
}

// arrive admits one open-loop arrival into the queue, or sheds it when the
// queue holds Spec.QueueCap arrivals.
func (t *Tenant) arrive(at sim.Time) {
	t.arrivals++
	if c := t.Spec.QueueCap; c > 0 && t.queue.Len() >= c {
		t.shed++
		return
	}
	t.queue.Push(at)
}

// enqueue admits a closed-loop arrival unconditionally.
func (t *Tenant) enqueue(at sim.Time) {
	t.arrivals++
	t.queue.Push(at)
}

// issue builds, encodes and posts the oldest queued request.
func (t *Tenant) issue(p *sim.Proc) {
	arrivedAt := t.queue.Pop()
	req := t.gen.Next(t.eng.Now())
	t.conn.Prep(p, t.vcpu, t.rng)
	// Stamp the request with its arrival time, not the post time: measured
	// latency then includes the client-side queueing a full window causes,
	// so saturation produces the hockey stick instead of being hidden by
	// the issue window (coordinated omission). Every request is encoded
	// into the one scratch slice, which the HCA still holds for any
	// request in flight (see DESIGN.md, "Send buffers").
	req.SentAt = arrivedAt
	if err := t.conn.Post(req, t.scratch); err != nil {
		panic(fmt.Sprintf("workload: %s post: %v", t.Spec.Name, err))
	}
	t.outstanding.Push(arrivedAt)
	t.issued++
}

// complete decodes one response, takes the completion interrupt, recycles
// the slot, measures the response, and — for closed loops — queues the
// user's next request.
func (t *Tenant) complete(p *sim.Proc, cqe hca.CQE) {
	resp, err := t.conn.Response(p, t.vcpu, cqe, InterruptCost)
	now := t.eng.Now()
	if t.outstanding.Len() > 0 {
		t.outstanding.Pop()
	}
	if err == nil {
		latUs := (now - resp.SentAt).Microseconds()
		t.latency.Add(latUs)
		t.slo.observe(latUs)
		t.completed++
	}
	if t.Spec.Arrivals == nil {
		t.enqueue(now)
	}
}

// tickWindow closes one SLO evaluation window.
func (t *Tenant) tickWindow() {
	if !t.running {
		return
	}
	var oldest sim.Time
	has := false
	switch {
	case t.outstanding.Len() > 0:
		oldest, has = *t.outstanding.Front(), true
	case t.queue.Len() > 0:
		oldest, has = *t.queue.Front(), true
	}
	t.slo.endWindow(t.eng.Now(), oldest, has)
}

// ResetStats forgets everything measured so far (the warmup discard).
// Queued and in-flight requests keep their original arrival stamps: a
// backlog that predates the reset is real load, and its latency belongs in
// the measurement.
func (t *Tenant) ResetStats() {
	now := t.eng.Now()
	t.latency.Reset()
	t.slo.reset(now)
	t.arrivals, t.shed, t.issued, t.completed = 0, 0, 0, 0
	t.resetAt = now
}

// Stats snapshots the tenant's measurements.
func (t *Tenant) Stats() TenantStats {
	st := TenantStats{
		Arrivals:  t.arrivals,
		Shed:      t.shed,
		Issued:    t.issued,
		Completed: t.completed,
		Queued:    t.queue.Len(),
		Inflight:  t.outstanding.Len(),
		Latency:   t.latency,
		P50:       t.slo.total.Quantile(0.5),
		P99:       t.slo.total.Quantile(0.99),
		P999:      t.slo.total.Quantile(0.999),
		AttainPct: t.slo.attainment(),
	}
	if elapsed := (t.eng.Now() - t.resetAt).Seconds(); elapsed > 0 {
		st.OfferedPerSec = float64(t.arrivals) / elapsed
		st.CompletedPerSec = float64(t.completed) / elapsed
	}
	return st
}
