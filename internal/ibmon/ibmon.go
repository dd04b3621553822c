// Package ibmon reimplements IBMon (Ranadive et al., "IBMon: Monitoring
// VMM-Bypass InfiniBand Devices using Memory Introspection"): a dom0 tool
// that infers the I/O activity of VMM-bypass InfiniBand guests by mapping
// and periodically reading the completion-queue state the HCA writes into
// guest memory.
//
// The monitor never receives information from the simulated HCA directly.
// For each watched VM it holds introspection mappings (obtained through
// xen.MapForeignRange, the xc_map_foreign_range equivalent) of
//
//   - the CQ doorbell record: an 8-byte monotonic producer count, and
//   - the CQE ring: 40-byte entries carrying QPN, byte length and opcode,
//
// and every sampling period it parses whatever new bytes appeared: exactly
// the out-of-band position the real tool is in. If the guest completes more
// than one ring's worth of entries between two samples, the overwritten
// CQEs are unreadable; the monitor counts them as lost and extrapolates
// their size from the running average — the same sampling-rate/accuracy
// trade-off the IBMon paper measures.
//
// Sampling costs dom0 CPU: when the monitor is bound to a dom0 VCPU, each
// sample charges a base cost plus a per-entry parse cost, so monitoring
// overhead is visible in the simulation like any other work.
package ibmon

import (
	"fmt"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/xen"
)

// Usage is the cumulative estimate IBMon maintains for one watched VM. All
// fields are derived purely from introspected bytes.
type Usage struct {
	// Samples is the number of sampling passes taken.
	Samples int64
	// Completions is the total completions observed (including lost ones).
	Completions int64
	// Lost counts completions whose CQEs were overwritten before a sample
	// could read them; their sizes are estimated.
	Lost int64
	// BytesSent totals payload bytes of the VM's SEND completions.
	BytesSent int64
	// MTUsSent is the paper's primary metric: the number of MTU packets the
	// HCA put on the wire for this VM, inferred from per-completion sizes.
	MTUsSent int64
	// BytesRecv totals receive-side completion bytes.
	BytesRecv int64
	// BufferSize is the inferred application buffer size: the largest
	// send-completion length seen.
	BufferSize int
	// QPN is the queue pair number most recently seen in a CQE.
	QPN uint32
}

// The monitor's fixed sampling costs and recovery parameters.
const (
	// SampleBaseCost is dom0 CPU charged per pass.
	SampleBaseCost = sim.Microsecond
	// SampleEntryCost is dom0 CPU charged per parsed CQE.
	SampleEntryCost = 50 * sim.Nanosecond
	// RemapBackoff is the first retry delay after an introspection mapping
	// is invalidated (grant revoked, P2M changed under the monitor);
	// subsequent retries double it up to RemapBackoffMax.
	RemapBackoff    = sim.Millisecond
	RemapBackoffMax = 64 * sim.Millisecond
	// DegradedConfidence is the per-target confidence below which the
	// monitor reports itself degraded for that VM.
	DegradedConfidence = 0.7
)

// Config parameterizes a Monitor.
type Config struct {
	// Period between sampling passes. Default 250 µs.
	Period sim.Time
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 250 * sim.Microsecond
	}
	return c
}

// confAlpha is the EWMA weight of one sampling pass in the per-target
// confidence score: a blind pass (invalid mapping, blackout) drags the score
// below the DegradedConfidence threshold within ~3 passes, and ~3
// clean passes pull it back above.
const confAlpha = 0.15

// Target is one watched VM completion queue.
type Target struct {
	dom    xen.DomID
	ring   *guestmem.Region
	dbrec  *guestmem.Region
	depth  int
	seen   uint64 // producer count at last sample
	usage  Usage
	avgLen float64 // running average completion size, for loss estimation

	// Remap/confidence state. The addresses are kept so an invalidated
	// mapping can be re-established.
	ringAddr   guestmem.Addr
	dbrecAddr  guestmem.Addr
	invalid    bool     // introspection mapping currently unusable
	nextRemap  sim.Time // earliest next remap attempt
	backoff    sim.Time // current retry delay (exponential)
	remapTries int64    // failed remap attempts since invalidation
	conf       float64  // EWMA fraction of completions actually read
}

// Domain returns the watched domain.
func (t *Target) Domain() xen.DomID { return t.dom }

// Usage returns the cumulative estimates for the target.
func (t *Target) Usage() Usage { return t.usage }

// Confidence is the target's telemetry quality in [0,1]: an EWMA over
// sampling passes of the fraction of completions whose CQEs were actually
// read (as opposed to lost to ring wraps, an invalid mapping, or a telemetry
// blackout). 1 = every estimate backed by parsed bytes.
func (t *Target) Confidence() float64 { return t.conf }

// Invalid reports whether the target's introspection mapping is currently
// unusable (awaiting a remap retry).
func (t *Target) Invalid() bool { return t.invalid }

// RemapTries returns the failed remap attempts since the last invalidation.
func (t *Target) RemapTries() int64 { return t.remapTries }

// observePass folds one sampling pass of quality q (fraction of this pass's
// completions that were read; 1 for an idle pass, 0 for a blind one) into
// the confidence score.
func (t *Target) observePass(q float64) {
	t.conf = (1-confAlpha)*t.conf + confAlpha*q
}

// Monitor is the dom0 sampling loop over a set of targets.
type Monitor struct {
	hv      *xen.Hypervisor
	cfg     Config
	vcpu    *xen.VCPU // dom0 VCPU the sampler runs on; nil = free sampling
	targets []*Target
	marks   map[xen.DomID]profileMark // last ProfileOf snapshot per domain
	proc    *sim.Proc
	running bool

	// Fault state.
	revoked       map[xen.DomID]bool // domains whose mappings stay invalid
	blackout      bool               // telemetry blackout: no sampling at all
	blackoutPass  int64              // passes skipped while blacked out
	invalidations int64              // InvalidateDomain calls
}

// New creates a monitor on the given hypervisor. If vcpu is non-nil the
// sampling work is charged to it (it should be a dom0 VCPU).
func New(hv *xen.Hypervisor, vcpu *xen.VCPU, cfg Config) *Monitor {
	return &Monitor{hv: hv, cfg: cfg.withDefaults(), vcpu: vcpu,
		marks:   make(map[xen.DomID]profileMark),
		revoked: make(map[xen.DomID]bool)}
}

// Watch maps the CQ state of a guest domain for monitoring. The ring and
// doorbell addresses come from the dom0 backend driver, which sees every
// control-path operation (CQ creation) even on bypass devices — exactly the
// "assistance from the dom0 device driver" the paper describes.
func (m *Monitor) Watch(dom xen.DomID, ringAddr guestmem.Addr, depth int, dbrecAddr guestmem.Addr) (*Target, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("ibmon: invalid CQ depth %d", depth)
	}
	ring, err := m.hv.MapForeignRange(dom, ringAddr, uint64(depth)*hca.CQESize)
	if err != nil {
		return nil, fmt.Errorf("ibmon: mapping CQ ring: %w", err)
	}
	dbrec, err := m.hv.MapForeignRange(dom, dbrecAddr, hca.CQDBRecSize)
	if err != nil {
		return nil, fmt.Errorf("ibmon: mapping doorbell record: %w", err)
	}
	t := &Target{dom: dom, ring: ring, dbrec: dbrec, depth: depth,
		ringAddr: ringAddr, dbrecAddr: dbrecAddr, conf: 1}
	if m.revoked[dom] {
		// Watching a domain whose mappings are currently revoked: start in
		// the retry path instead of reading stale bytes.
		t.invalid = true
		t.backoff = RemapBackoff
		t.nextRemap = m.hv.Engine().Now() + t.backoff
	}
	m.targets = append(m.targets, t)
	return t, nil
}

// WatchCQ is a convenience wrapper for simulations that hold the *hca.CQ:
// it extracts the addresses the backend driver would report.
func (m *Monitor) WatchCQ(dom xen.DomID, cq *hca.CQ) (*Target, error) {
	return m.Watch(dom, cq.RingAddr(), cq.Depth(), cq.DBRecAddr())
}

// Unwatch drops a CQ target from the sampling set and releases its
// introspection mappings (the VM left the host, e.g. by migration).
func (m *Monitor) Unwatch(t *Target) {
	for i, w := range m.targets {
		if w == t {
			m.targets = append(m.targets[:i], m.targets[i+1:]...)
			return
		}
	}
}

// UnwatchDomain drops every CQ target of a domain.
func (m *Monitor) UnwatchDomain(dom xen.DomID) {
	kept := m.targets[:0]
	for _, t := range m.targets {
		if t.dom != dom {
			kept = append(kept, t)
		}
	}
	m.targets = kept
	delete(m.marks, dom)
}

// Targets returns all watched targets.
func (m *Monitor) Targets() []*Target { return m.targets }

// Hypervisor returns the hypervisor of the host the monitor runs on.
func (m *Monitor) Hypervisor() *xen.Hypervisor { return m.hv }

// Target returns the watch target for a domain, or nil.
func (m *Monitor) Target(dom xen.DomID) *Target {
	for _, t := range m.targets {
		if t.dom == dom {
			return t
		}
	}
	return nil
}

// Start launches the periodic sampling loop.
func (m *Monitor) Start(eng *sim.Engine) {
	if m.running {
		return
	}
	m.running = true
	m.proc = eng.Go("ibmon", func(p *sim.Proc) {
		for m.running {
			p.Sleep(m.cfg.Period)
			m.SampleAll(p)
		}
	})
}

// Stop halts the sampling loop.
func (m *Monitor) Stop() {
	m.running = false
	if m.proc != nil && !m.proc.Ended() {
		m.proc.Kill()
	}
}

// SetBlackout starts or ends a host telemetry blackout: while active, the
// monitor takes no samples at all (the dom0 sampler is wedged, or the
// introspection path is gone) and every target's confidence decays toward
// zero. Usage estimates freeze at their last values — the stale-read hazard
// consumers must handle.
func (m *Monitor) SetBlackout(on bool) { m.blackout = on }

// BlackedOut reports whether a telemetry blackout is active.
func (m *Monitor) BlackedOut() bool { return m.blackout }

// BlackoutPasses returns how many sampling passes a blackout swallowed.
func (m *Monitor) BlackoutPasses() int64 { return m.blackoutPass }

// Invalidations returns how many times a domain's mappings were invalidated.
func (m *Monitor) Invalidations() int64 { return m.invalidations }

// InvalidateDomain invalidates every introspection mapping of a domain (the
// guest's grant was revoked or its P2M changed under the monitor). Sampling
// the domain stops; each target retries the remap with exponential backoff
// until RestoreDomain allows it to succeed.
func (m *Monitor) InvalidateDomain(dom xen.DomID) {
	m.revoked[dom] = true
	m.invalidations++
	now := m.hv.Engine().Now()
	for _, t := range m.targets {
		if t.dom != dom || t.invalid {
			continue
		}
		t.invalid = true
		t.backoff = RemapBackoff
		t.nextRemap = now + t.backoff
		t.remapTries = 0
	}
}

// RestoreDomain lets remap retries for the domain succeed again. The next
// scheduled retry per target re-establishes its mappings; the producer delta
// accumulated while blind is then accounted through the normal loss path.
func (m *Monitor) RestoreDomain(dom xen.DomID) { delete(m.revoked, dom) }

// Health classifies the monitor's own observability.
type Health int

// Health states, ordered by severity.
const (
	// HealthOK: every mapping valid, confidence above the degraded
	// threshold for all targets.
	HealthOK Health = iota
	// HealthDegraded: at least one target is remapping or has confidence
	// below Config.DegradedConfidence.
	HealthDegraded
	// HealthBlackout: a telemetry blackout is active; nothing is sampled.
	HealthBlackout
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case HealthOK:
		return "OK"
	case HealthDegraded:
		return "degraded"
	case HealthBlackout:
		return "blackout"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Health reports the monitor's current observability state.
func (m *Monitor) Health() Health {
	if m.blackout {
		return HealthBlackout
	}
	for _, t := range m.targets {
		if t.invalid || t.conf < DegradedConfidence {
			return HealthDegraded
		}
	}
	return HealthOK
}

// SampleAll takes one sampling pass over every target, charging dom0 CPU if
// a VCPU is bound. It may be called manually (p may be nil only when the
// monitor has no VCPU).
func (m *Monitor) SampleAll(p *sim.Proc) {
	if m.blackout {
		// The sampler is wedged: no reads, no CPU charged, confidence decays.
		m.blackoutPass++
		for _, t := range m.targets {
			t.usage.Samples++
			t.observePass(0)
		}
		return
	}
	now := m.hv.Engine().Now()
	for _, t := range m.targets {
		if t.invalid {
			m.retryRemap(p, t, now)
			t.usage.Samples++
			t.observePass(0)
			continue
		}
		n := t.sample()
		if m.vcpu != nil {
			m.vcpu.Use(p, SampleBaseCost+sim.Time(n)*SampleEntryCost)
		}
	}
}

// retryRemap attempts to re-establish an invalidated target's mappings once
// its backoff window has elapsed. A failed attempt (domain still revoked)
// doubles the backoff up to RemapBackoffMax.
func (m *Monitor) retryRemap(p *sim.Proc, t *Target, now sim.Time) {
	if now < t.nextRemap {
		return
	}
	if m.vcpu != nil {
		// A remap attempt is a hypercall; it costs dom0 CPU whether or not
		// it succeeds.
		m.vcpu.Use(p, SampleBaseCost)
	}
	if m.revoked[t.dom] {
		t.remapTries++
		t.backoff *= 2
		if t.backoff > RemapBackoffMax {
			t.backoff = RemapBackoffMax
		}
		t.nextRemap = now + t.backoff
		return
	}
	ring, err := m.hv.MapForeignRange(t.dom, t.ringAddr, uint64(t.depth)*hca.CQESize)
	if err != nil {
		// Domain gone (destroyed, migrated away): keep retrying until an
		// Unwatch drops the target.
		t.remapTries++
		t.nextRemap = now + t.backoff
		return
	}
	dbrec, err := m.hv.MapForeignRange(t.dom, t.dbrecAddr, hca.CQDBRecSize)
	if err != nil {
		t.remapTries++
		t.nextRemap = now + t.backoff
		return
	}
	t.ring, t.dbrec = ring, dbrec
	t.invalid = false
	t.backoff = RemapBackoff
}

// sample reads the doorbell record and any new CQEs; it returns the number
// of entries parsed.
func (t *Target) sample() int {
	t.usage.Samples++
	produced := t.dbrec.ReadU64(0)
	if produced == t.seen {
		t.observePass(1)
		return 0
	}
	delta := produced - t.seen
	lost := int64(0)
	first := t.seen
	if delta > uint64(t.depth) {
		// The ring wrapped past us: the oldest entries are gone.
		lost = int64(delta - uint64(t.depth))
		first = produced - uint64(t.depth)
	}
	parsed := 0
	for i := first; i < produced; i++ {
		slot := i % uint64(t.depth)
		base := slot * hca.CQESize
		stamp := t.ring.ReadU32(base)
		if stamp != uint32(i+1) {
			// Entry not yet visible or already overwritten; treat as lost.
			lost++
			continue
		}
		qpn := t.ring.ReadU32(base + 4)
		byteLen := t.ring.ReadU32(base + 8)
		opst := t.ring.ReadU32(base + 12)
		op := hca.Opcode(opst & 0xffff)
		t.account(op, qpn, int64(byteLen))
		parsed++
	}
	if lost > 0 {
		t.usage.Lost += lost
		t.usage.Completions += lost
		// Extrapolate: assume lost completions looked like the average.
		if t.avgLen > 0 {
			estBytes := int64(t.avgLen * float64(lost))
			t.usage.BytesSent += estBytes
			t.usage.MTUsSent += mtusFor(estBytes)
		}
	}
	t.seen = produced
	t.observePass(float64(parsed) / float64(int64(parsed)+lost))
	return parsed
}

// account folds one parsed CQE into the usage estimate.
func (t *Target) account(op hca.Opcode, qpn uint32, byteLen int64) {
	t.usage.Completions++
	t.usage.QPN = qpn
	if op == hca.OpRecv {
		t.usage.BytesRecv += byteLen
		return
	}
	t.usage.BytesSent += byteLen
	t.usage.MTUsSent += mtusFor(byteLen)
	if int(byteLen) > t.usage.BufferSize {
		t.usage.BufferSize = int(byteLen)
	}
	// EWMA of completion size for loss extrapolation.
	if t.avgLen == 0 {
		t.avgLen = float64(byteLen)
	} else {
		t.avgLen = 0.9*t.avgLen + 0.1*float64(byteLen)
	}
}

// mtusFor converts bytes to MTU packets (minimum 1 per completion).
func mtusFor(bytes int64) int64 {
	if bytes <= 0 {
		return 1
	}
	return (bytes + fabric.DefaultMTU - 1) / fabric.DefaultMTU
}

// Profile is a per-VM I/O rate snapshot, aggregated across every watched
// CQ of the domain: the send rate in bytes per second over the window since
// the previous ProfileOf call, plus the inferred application buffer size.
// This is the input the placement layer scores with — a large BufferSize at
// a high BytesPerSec identifies the latency-destroying neighbor class of the
// paper.
type Profile struct {
	// BytesPerSec is the send-side rate over the window.
	BytesPerSec float64
	// BufferSize is the largest send completion seen since watch start.
	BufferSize int
}

// profileMark remembers the cumulative byte count at the last snapshot.
type profileMark struct {
	bytes    int64
	at       sim.Time
	byteRate float64 // last computed rate, reused for zero windows
}

// ProfileOf returns the windowed profile for one domain; ok is false when
// the domain has no watched CQs.
func (m *Monitor) ProfileOf(dom xen.DomID) (Profile, bool) {
	for _, t := range m.targets {
		if t.dom == dom {
			return m.profileDomain(dom), true
		}
	}
	return Profile{}, false
}

// profileDomain aggregates the domain's targets and advances its mark.
func (m *Monitor) profileDomain(dom xen.DomID) Profile {
	var bytes int64
	var p Profile
	for _, t := range m.targets {
		if t.dom != dom {
			continue
		}
		u := t.Usage()
		bytes += u.BytesSent
		if u.BufferSize > p.BufferSize {
			p.BufferSize = u.BufferSize
		}
	}
	now := m.hv.Engine().Now()
	mark := m.marks[dom]
	if window := now - mark.at; window > 0 {
		p.BytesPerSec = float64(bytes-mark.bytes) / window.Seconds()
	} else {
		// Same-instant re-poll: repeat the previous rate.
		p.BytesPerSec = mark.byteRate
	}
	m.marks[dom] = profileMark{bytes: bytes, at: now, byteRate: p.BytesPerSec}
	return p
}
