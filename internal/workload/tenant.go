package workload

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/stats"
	"resex/internal/trace"
	"resex/internal/xen"
)

// TenantStats is a snapshot of one tenant's measured behavior since the
// last reset.
type TenantStats struct {
	Arrivals  int64 // generated arrivals (open loop: admitted + shed)
	Shed      int64 // arrivals rejected by the admission hook
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
	pd      *hca.PD
	rng     *sim.Rand
	gen     *trace.Generator
	qp      *hca.QP
	scq     *hca.CQ
	rcq     *hca.CQ
	sendBuf guestmem.Addr
	sendMR  *hca.MR
	recvBuf guestmem.Addr
	recvMR  *hca.MR
	slots   int
	scratch []byte
	resp    []byte

	work        *sim.Signal
	queue       []sim.Time // arrival stamps awaiting issue (FIFO)
	outstanding []sim.Time // arrival stamps of posted requests (FIFO)
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
// protection domain, mirroring the benchex client's verbs layout: one send
// buffer, a Window+2-slot receive slab, and a QP whose receive ring is
// pre-posted.
func newTenant(eng *sim.Engine, vcpu *xen.VCPU, pd *hca.PD, spec TenantSpec) (*Tenant, error) {
	t := &Tenant{
		Spec:    spec,
		eng:     eng,
		vcpu:    vcpu,
		pd:      pd,
		rng:     sim.NewRand(spec.Seed ^ 0x7ead),
		gen:     trace.NewGenerator(spec.Seed),
		work:    sim.NewSignal(eng),
		scratch: make([]byte, trace.RequestSize),
		resp:    make([]byte, trace.ResponseSize),
		slo:     newSLOTracker(spec.SLO),
	}
	t.slots = spec.Window + 2
	space := pd.Space()
	bs := uint64(spec.BufferSize)
	t.sendBuf = space.Alloc(bs, 64)
	t.recvBuf = space.Alloc(bs*uint64(t.slots), 64)
	var err error
	t.sendMR, err = pd.RegisterMR(t.sendBuf, bs, 0)
	if err != nil {
		return nil, fmt.Errorf("workload: %s send MR: %w", spec.Name, err)
	}
	t.recvMR, err = pd.RegisterMR(t.recvBuf, bs*uint64(t.slots), hca.AccessLocalWrite)
	if err != nil {
		return nil, fmt.Errorf("workload: %s recv MR: %w", spec.Name, err)
	}
	t.scq = pd.CreateCQ(1024)
	t.rcq = pd.CreateCQ(1024)
	t.qp = pd.CreateQP(t.scq, t.rcq, spec.Window+2, t.slots)
	for slot := 0; slot < t.slots; slot++ {
		if err := t.postRecv(slot); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Endpoint returns the tenant's client QP for connection wiring.
func (t *Tenant) Endpoint() *hca.QP { return t.qp }

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

func (t *Tenant) postRecv(slot int) error {
	return t.qp.PostRecv(hca.RecvWR{
		ID:   uint64(slot),
		Addr: t.recvBuf + guestmem.Addr(slot*t.Spec.BufferSize),
		LKey: t.recvMR.Key(),
		Len:  t.Spec.BufferSize,
	})
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
			for {
				if _, ok := t.scq.Poll(); !ok {
					break
				}
			}
			continue
		}
		if len(t.queue) > 0 && len(t.outstanding) < t.Spec.Window {
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

// arrive processes one open-loop arrival through the admission hook.
func (t *Tenant) arrive(at sim.Time) {
	t.arrivals++
	if !t.Spec.Admission.Admit(AdmitState{QueueLen: len(t.queue)}) {
		t.shed++
		return
	}
	t.queue = append(t.queue, at)
}

// enqueue admits a closed-loop arrival unconditionally.
func (t *Tenant) enqueue(at sim.Time) {
	t.arrivals++
	t.queue = append(t.queue, at)
}

// issue builds, encodes and posts the oldest queued request.
func (t *Tenant) issue(p *sim.Proc) {
	arrivedAt := t.queue[0]
	t.queue = t.queue[1:]
	req := t.gen.Next(t.eng.Now())
	prep := sim.Time(float64(benchex.PrepTime) * t.rng.Uniform(1-benchex.PrepJitter, 1+benchex.PrepJitter))
	if prep < 1 {
		prep = 1
	}
	t.vcpu.Use(p, prep)
	// Stamp the request with its arrival time, not the post time: measured
	// latency then includes the client-side queueing a full window causes,
	// so saturation produces the hockey stick instead of being hidden by
	// the issue window (coordinated omission).
	req.SentAt = arrivedAt
	if err := req.Encode(t.scratch); err != nil {
		panic(err)
	}
	t.pd.Space().Write(t.sendBuf, t.scratch)
	if err := t.qp.PostSend(hca.SendWR{
		ID:        req.Seq,
		LocalAddr: t.sendBuf,
		LKey:      t.sendMR.Key(),
		Len:       t.Spec.BufferSize,
		Payload:   t.scratch,
	}); err != nil {
		panic(fmt.Sprintf("workload: %s post: %v", t.Spec.Name, err))
	}
	t.outstanding = append(t.outstanding, arrivedAt)
	t.issued++
}

// complete decodes one response, measures it, recycles the slot, and — for
// closed loops — schedules the user's next request after think time.
func (t *Tenant) complete(p *sim.Proc, cqe hca.CQE) {
	slot := int(cqe.WRID)
	t.pd.Space().Read(t.recvBuf+guestmem.Addr(slot*t.Spec.BufferSize), t.resp)
	resp, err := trace.DecodeResponse(t.resp)
	t.vcpu.Use(p, InterruptCost)
	now := t.eng.Now()
	if len(t.outstanding) > 0 {
		t.outstanding = t.outstanding[1:]
	}
	if err == nil {
		latUs := (now - resp.SentAt).Microseconds()
		t.latency.Add(latUs)
		t.slo.observe(latUs)
		t.completed++
	}
	if err := t.postRecv(slot); err != nil {
		panic(fmt.Sprintf("workload: %s repost: %v", t.Spec.Name, err))
	}
	if t.Spec.Arrivals == nil {
		t.rearm(now)
	}
}

// rearm returns a closed-loop user to the queue after think time.
func (t *Tenant) rearm(now sim.Time) {
	think := t.Spec.Closed.Think
	if t.Spec.Closed.ThinkExp && think > 0 {
		think = t.rng.ExpDuration(think)
	}
	if think <= 0 {
		t.enqueue(now)
		return
	}
	t.eng.After(think, func() {
		if !t.running {
			return
		}
		t.enqueue(t.eng.Now())
		t.work.Broadcast()
	})
}

// tickWindow closes one SLO evaluation window.
func (t *Tenant) tickWindow() {
	if !t.running {
		return
	}
	var oldest sim.Time
	has := false
	switch {
	case len(t.outstanding) > 0:
		oldest, has = t.outstanding[0], true
	case len(t.queue) > 0:
		oldest, has = t.queue[0], true
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
		Queued:    len(t.queue),
		Inflight:  len(t.outstanding),
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
