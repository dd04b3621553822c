// Package resex implements ResourceExchange (ResEx), the paper's core
// contribution: a dom0 resource manager for virtualized RDMA platforms that
// prices CPU and VMM-bypass I/O in a single currency (Resos) and enforces
// pricing policies by adjusting VM CPU caps — the hypervisor's only lever
// over bypass I/O.
//
// The manager runs in dom0. Every charge interval (1 ms) it
//
//  1. reads each monitored VM's MTUsSent from IBMon (memory introspection —
//     the device is invisible to the hypervisor otherwise),
//  2. reads each VM's CPU consumption from the hypervisor (XenStat),
//  3. hands the per-interval usage to the active pricing policy, which
//     converts it to Resos at per-VM charging rates, deducts it from the
//     VM's account, and decides a CPU cap,
//  4. applies cap changes via the credit scheduler.
//
// Every epoch (1 s = 1000 intervals) accounts replenish to their allocation
// and leftover Resos are discarded.
//
// Two policies from the paper are provided: FreeMarket (§VI-B — fixed
// prices, maximum utilization, graceful cap decay on Reso exhaustion) and
// IOShares (§VI-C — congestion pricing driven by in-VM latency feedback).
// The Policy interface accepts user-defined policies as well.
package resex

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/hca"
	"resex/internal/ibmon"
	"resex/internal/resos"
	"resex/internal/sim"
	"resex/internal/stats"
	"resex/internal/xen"
)

// The manager's platform constants (paper §VI).
const (
	// Interval is the charging interval (paper §VI-A).
	Interval = sim.Millisecond
	// MinResoFraction is the balance fraction below which the graceful cap
	// decay engages (paper: 10%).
	MinResoFraction = 0.10
	// MinEpochRemaining is the fraction of the epoch that must remain for
	// the decay to engage (paper: 10%).
	MinEpochRemaining = 0.10
	// CapDecay is the multiplicative cap decrease applied per interval
	// while a VM is out of Resos (paper: decrement by 10% → 0.9).
	CapDecay = 0.9
	// MinCap floors enforced caps, in percent.
	MinCap = 1
	// TickCost is dom0 CPU charged per manager interval, plus PerVMCost
	// per monitored VM.
	TickCost  = 2 * sim.Microsecond
	PerVMCost = sim.Microsecond
	// StaleConfidence is the confidence below which evidence counts as
	// stale for the wrongful-throttle accounting (tracked whether or not
	// the confidence gate is enabled).
	StaleConfidence = 0.7
)

// Config parameterizes the manager.
type Config struct {
	// IntervalsPerEpoch sets the epoch length. Default 1000 (1 s epoch).
	IntervalsPerEpoch int
	// ConfidenceGate, when positive, enables degraded-mode cap holding: a
	// VM's cap is never *tightened* while the host monitor is blacked out
	// or the VM's IBMon confidence is below the gate — the last-known cap
	// holds until the evidence recovers (no punishing a VM on stale
	// telemetry). 0 (the default) disables the gate: caps apply
	// unconditionally, as the paper's original policies do.
	ConfidenceGate float64
}

func (c Config) withDefaults() Config {
	if c.IntervalsPerEpoch <= 0 {
		c.IntervalsPerEpoch = 1000
	}
	return c
}

// LatencyWindow summarizes the agent reports received for a VM during one
// interval.
type LatencyWindow struct {
	Count int64
	Mean  float64 // µs
	Std   float64 // µs
	Max   float64 // µs
}

// ManagedVM is one VM under ResEx control.
type ManagedVM struct {
	Dom     *xen.Domain
	Account *resos.Account
	targets []*ibmon.Target // one per watched CQ; usage is summed

	// Policy state.
	rate       float64 // current charging rate (Resos per unit); ≥ 1
	cap        float64 // cap ResEx wants, percent; 100 = uncapped
	capForced  bool    // cap is currently enforced (vs. left uncapped)
	share      int     // Reso allocation weight (priority); default 1
	memMeter   func() int64
	lastMem    int64
	lastMTUs   int64
	mtuEwma    float64 // smoothed MTUs/interval, for robust attribution
	lastCPU    sim.Time
	reports    stats.Summary // agent reports since last interval (µs means)
	reportStd  float64
	baseline   float64 // SLA/learned base latency, µs
	sla        float64 // explicit SLA latency (0 = learn)
	cleanRuns  int     // consecutive intervals without interference
	interfered bool    // last interval judged interfered
	intervals  int64   // intervals since this VM came under management
	confidence float64 // min IBMon confidence across targets, updated per tick

	// Epoch accumulators backing the exported EpochSummary.
	epMTUs       int64
	epCPUPct     float64 // sum of per-interval CPU percents
	epIntervals  int
	epLat        stats.Summary // report means weighted by report count, µs
	epElev       stats.Summary // per-interval elevation over baseline, %
	epInterfered bool
	epIOMark     resos.Amount // cumulative charges at the last boundary
	epCPUMark    resos.Amount
}

// Rate returns the VM's current charging rate.
func (v *ManagedVM) Rate() float64 { return v.rate }

// Cap returns the cap ResEx currently wants for the VM, in percent
// (100 = uncapped).
func (v *ManagedVM) Cap() float64 { return v.cap }

// Baseline returns the latency reference (µs) used for interference
// detection.
func (v *ManagedVM) Baseline() float64 { return v.baseline }

// Interfered reports whether the VM was judged interfered-with in the last
// interval.
func (v *ManagedVM) Interfered() bool { return v.interfered }

// MTURate returns the smoothed MTUs-per-interval estimate.
func (v *ManagedVM) MTURate() float64 { return v.mtuEwma }

// Confidence returns the minimum IBMon confidence across the VM's watched
// CQs as of the last charging interval (1 until the first tick).
func (v *ManagedVM) Confidence() float64 { return v.confidence }

// VMTick is one VM's usage during one interval, as the policy sees it.
type VMTick struct {
	VM     *ManagedVM
	MTUs   int64   // MTUs sent this interval (IBMon estimate)
	CPUPct float64 // CPU percent consumed this interval (XenStat)
	// MemUnits is memory-bandwidth consumed this interval, in 4 KiB units
	// (the DimMemBW Reso). Zero unless the VM has a meter (SetMemMeter).
	MemUnits int64
	Latency  LatencyWindow
	// Confidence is the IBMon telemetry confidence behind MTUs (see
	// ManagedVM.Confidence); 0 during a host telemetry blackout.
	Confidence float64
}

// IntervalData is the per-interval input to a policy.
type IntervalData struct {
	Index int64 // absolute interval index
	Now   sim.Time
	VMs   []VMTick
}

// TotalMTUs sums MTUs across all monitored VMs this interval.
func (d *IntervalData) TotalMTUs() int64 {
	var t int64
	for _, v := range d.VMs {
		t += v.MTUs
	}
	return t
}

// Policy is a pricing strategy: it converts usage into Reso charges and cap
// decisions. Implementations must be deterministic.
type Policy interface {
	// Name labels the policy in output.
	Name() string
	// Interval processes one charging interval across all monitored VMs.
	Interval(m *Manager, d *IntervalData)
	// EpochStart is called at each epoch boundary, after accounts
	// replenish.
	EpochStart(m *Manager)
}

// Observer receives a snapshot after every interval (used to reproduce the
// timeline figures).
type Observer func(d *IntervalData)

// Manager is the ResEx dom0 control loop.
type Manager struct {
	eng      *sim.Engine
	hv       *xen.Hypervisor
	mon      *ibmon.Monitor
	vcpu     *xen.VCPU // dom0 VCPU; nil = unaccounted
	cfg      Config
	policy   Policy
	vms      []*ManagedVM
	obs      []Observer
	epochObs []EpochObserver

	running  bool
	interval int64
	pending  Policy // swapped in at the next epoch boundary (SwapPolicyAtEpoch)

	// Degraded-mode accounting (see Config.ConfidenceGate).
	tightenings       int64
	heldTightenings   int64
	wrongfulThrottles int64
}

// FaultStats counts the manager's cap decisions under degraded telemetry.
type FaultStats struct {
	// Tightenings is every applied cap decrease.
	Tightenings int64
	// HeldTightenings counts decreases the confidence gate refused while
	// evidence was stale (the last-known cap held instead).
	HeldTightenings int64
	// WrongfulThrottles counts decreases that *were* applied while the
	// evidence behind them was stale — what a naive stack inflicts during
	// blackouts, and what the gate exists to drive to zero.
	WrongfulThrottles int64
}

// FaultStats returns the degraded-mode decision counters.
func (m *Manager) FaultStats() FaultStats {
	return FaultStats{
		Tightenings:       m.tightenings,
		HeldTightenings:   m.heldTightenings,
		WrongfulThrottles: m.wrongfulThrottles,
	}
}

// TelemetryStale reports whether the throttling evidence for the VM is
// currently stale: the host monitor is blacked out, or the VM's IBMon
// confidence is below Config.StaleConfidence.
func (m *Manager) TelemetryStale(vm *ManagedVM) bool {
	if m.mon != nil && m.mon.BlackedOut() {
		return true
	}
	return vm.confidence < StaleConfidence
}

// AllowTighten reports whether the active configuration permits tightening
// the VM's cap right now. With the confidence gate enabled it refuses — and
// records a held tightening — while the host monitor is blacked out or the
// VM's confidence sits below the gate; policies consult it *before* raising
// charging rates so congestion state does not silently accumulate against a
// VM the gate is protecting.
func (m *Manager) AllowTighten(vm *ManagedVM) bool {
	if m.cfg.ConfidenceGate <= 0 {
		return true
	}
	if (m.mon != nil && m.mon.BlackedOut()) || vm.confidence < m.cfg.ConfidenceGate {
		m.heldTightenings++
		return false
	}
	return true
}

// New creates a manager for one host. mon must be watching (or be able to
// watch) the VMs that Manage adds; vcpu, when non-nil, is charged for the
// control loop's work.
func New(eng *sim.Engine, hv *xen.Hypervisor, mon *ibmon.Monitor, vcpu *xen.VCPU, policy Policy, cfg Config) *Manager {
	return &Manager{
		eng:    eng,
		hv:     hv,
		mon:    mon,
		vcpu:   vcpu,
		cfg:    cfg.withDefaults(),
		policy: policy,
	}
}

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// Policy returns the active pricing policy.
func (m *Manager) Policy() Policy { return m.policy }

// SwapPolicyAtEpoch stages p to replace the active pricing policy at the
// next epoch boundary — after accounts replenish and before the incoming
// policy's EpochStart runs, so the new policy always begins from a full
// epoch exactly as it would have on a fresh manager. Swapping mid-epoch is
// deliberately impossible: epoch alignment is what makes a live A/B flip
// comparable to a from-scratch run under the new policy. Staging a second
// swap before the boundary replaces the first; nil is ignored.
func (m *Manager) SwapPolicyAtEpoch(p Policy) {
	if p == nil {
		return
	}
	m.pending = p
}

// VMs returns the managed VMs.
func (m *Manager) VMs() []*ManagedVM { return m.vms }

// VM returns the managed VM for a domain, or nil.
func (m *Manager) VM(dom xen.DomID) *ManagedVM {
	for _, v := range m.vms {
		if v.Dom.ID() == dom {
			return v
		}
	}
	return nil
}

// Observe registers an interval observer.
func (m *Manager) Observe(o Observer) { m.obs = append(m.obs, o) }

// Manage places a VM under ResEx control, watching its send completion
// queue through IBMon introspection. slaLatencyUs, when positive, is the
// latency reference for congestion detection; zero lets the manager learn
// the VM's base latency from its quietest reports. The Reso allocation is
// recomputed for all managed VMs (equal sharing of the link supply).
func (m *Manager) Manage(dom *xen.Domain, sendCQ *hca.CQ, slaLatencyUs float64) (*ManagedVM, error) {
	return m.ManageCQs(dom, []*hca.CQ{sendCQ}, slaLatencyUs)
}

// ManageCQs places a VM under ResEx control watching several of its
// completion queues (typically everything the dom0 backend driver reports
// for the domain — see splitdriver.Backend.CQsOf); per-interval usage sums
// across them. Receive-side completions never count as MTUs sent, so
// watching a recv CQ alongside the send CQ is harmless.
func (m *Manager) ManageCQs(dom *xen.Domain, cqs []*hca.CQ, slaLatencyUs float64) (*ManagedVM, error) {
	if m.hv.Domain(dom.ID()) != dom {
		return nil, fmt.Errorf("resex: domain %q does not belong to this hypervisor", dom.Name())
	}
	if len(cqs) == 0 {
		return nil, fmt.Errorf("resex: no CQs to watch for %q", dom.Name())
	}
	var targets []*ibmon.Target
	for _, cq := range cqs {
		tgt, err := m.mon.WatchCQ(dom.ID(), cq)
		if err != nil {
			return nil, fmt.Errorf("resex: watching %s: %w", dom.Name(), err)
		}
		targets = append(targets, tgt)
	}
	vm := &ManagedVM{
		Dom:        dom,
		targets:    targets,
		rate:       1,
		cap:        100,
		share:      1,
		sla:        slaLatencyUs,
		confidence: 1,
	}
	vm.Account = resos.NewAccount(dom.Name(), 0)
	m.vms = append(m.vms, vm)
	m.reallocate()
	return vm, nil
}

// Unmanage releases a domain from ResEx control: its IBMon watches are
// dropped, any enforced cap is lifted, and the remaining VMs' allocations
// are recomputed. Live migration calls this on the source host before the
// VM re-registers with the target host's manager.
func (m *Manager) Unmanage(dom xen.DomID) {
	for i, vm := range m.vms {
		if vm.Dom.ID() != dom {
			continue
		}
		for _, tgt := range vm.targets {
			m.mon.Unwatch(tgt)
		}
		if vm.capForced {
			vm.Dom.SetCap(0)
			vm.capForced = false
		}
		m.vms = append(m.vms[:i], m.vms[i+1:]...)
		m.reallocate()
		return
	}
}

// SetShare assigns a VM an allocation weight (priority). The I/O supply is
// divided among managed VMs proportionally to their shares (paper §VI-A:
// "Resos can also be distributed unequally, e.g., based on priority of the
// VMs"); the per-VM CPU supply is unaffected since each VM owns a PCPU.
// Takes effect at the next replenishment.
func (m *Manager) SetShare(vm *ManagedVM, share int) {
	if share < 1 {
		share = 1
	}
	vm.share = share
	m.reallocate()
}

// Share returns the VM's allocation weight.
func (v *ManagedVM) Share() int { return v.share }

// SetMemMeter attaches a memory-bandwidth meter to a managed VM: a
// deterministic function returning the VM's cumulative memory traffic in
// 4 KiB units (the DimMemBW Reso — per H-MBR, the hypervisor observes
// memory-bandwidth consumption out of band, so the meter is pluggable
// rather than derived from IBMon). The manager reads it once per charging
// interval and hands the delta to the policy as VMTick.MemUnits; policies
// that do not price memory bandwidth ignore it. Nil detaches.
func (m *Manager) SetMemMeter(vm *ManagedVM, meter func() int64) {
	vm.memMeter = meter
	vm.lastMem = 0
	if meter != nil {
		vm.lastMem = meter()
	}
}

// reallocate recomputes every managed VM's allocation from the supply and
// the current shares. Balances adjust at the next replenishment (or
// immediately for a VM that has not been charged yet this epoch).
func (m *Manager) reallocate() {
	total := 0
	for _, v := range m.vms {
		total += v.share
	}
	if total == 0 {
		return
	}
	for _, v := range m.vms {
		alloc := resos.CPUAllocation + resos.LinkMTUsPerEpoch*resos.Amount(v.share)/resos.Amount(total)
		fresh := v.Account.Balance() == v.Account.Allocation()
		v.Account.SetAllocation(alloc)
		if fresh {
			v.Account.Replenish()
		}
	}
}

// LatencyReport implements benchex.ReportSink: in-VM agents forward their
// latency summaries here.
func (m *Manager) LatencyReport(r benchex.LatencyReport) {
	vm := m.VM(r.Domain)
	if vm == nil {
		return
	}
	vm.reports.AddN(r.Mean, r.Count)
	if r.Std > vm.reportStd {
		vm.reportStd = r.Std
	}
}

// Start launches the control loop.
func (m *Manager) Start() {
	if m.running {
		return
	}
	m.running = true
	m.eng.Go("resex-"+m.policy.Name(), m.run)
}

// run is the dom0 interval loop.
func (m *Manager) run(p *sim.Proc) {
	for {
		p.Sleep(Interval)
		if m.vcpu != nil {
			m.vcpu.Use(p, TickCost+sim.Time(len(m.vms))*PerVMCost)
		}
		m.tick()
	}
}

// tick executes one charging interval.
func (m *Manager) tick() {
	m.interval++
	d := &IntervalData{Index: m.interval, Now: m.eng.Now()}
	for _, vm := range m.vms {
		vm.intervals++
		var sent int64
		for _, tgt := range vm.targets {
			sent += tgt.Usage().MTUsSent
		}
		mtus := sent - vm.lastMTUs
		vm.lastMTUs = sent
		vm.mtuEwma = 0.9*vm.mtuEwma + 0.1*float64(mtus)
		vm.confidence = 1
		for _, tgt := range vm.targets {
			if c := tgt.Confidence(); c < vm.confidence {
				vm.confidence = c
			}
		}
		cpu := vm.Dom.CPUTime()
		pct := 100 * float64(cpu-vm.lastCPU) / float64(Interval)
		vm.lastCPU = cpu
		var memUnits int64
		if vm.memMeter != nil {
			cur := vm.memMeter()
			memUnits = cur - vm.lastMem
			vm.lastMem = cur
		}

		lw := LatencyWindow{
			Count: vm.reports.Count(),
			Mean:  vm.reports.Mean(),
			Std:   vm.reportStd,
			Max:   vm.reports.Max(),
		}
		vm.reports.Reset()
		vm.reportStd = 0
		d.VMs = append(d.VMs, VMTick{VM: vm, MTUs: mtus, CPUPct: pct, MemUnits: memUnits,
			Latency: lw, Confidence: vm.confidence})

		// Learn the base latency as the quietest sustained report level.
		if lw.Count > 0 && vm.sla == 0 {
			if vm.baseline == 0 || lw.Mean < vm.baseline {
				vm.baseline = lw.Mean
			}
		}
		if vm.sla > 0 {
			vm.baseline = vm.sla
		}

		// Epoch accumulators. The elevation percent is computed here, not
		// in any policy, so EpochSummary carries an interference signal no
		// matter which pricing scheme is active.
		vm.epMTUs += mtus
		vm.epCPUPct += pct
		vm.epIntervals++
		if lw.Count > 0 {
			vm.epLat.AddN(lw.Mean, lw.Count)
			if vm.baseline > 0 {
				elev := 100 * (lw.Mean - vm.baseline) / vm.baseline
				if elev < 0 {
					elev = 0
				}
				vm.epElev.Add(elev)
			}
		}
	}

	m.policy.Interval(m, d)
	for _, vm := range m.vms {
		if vm.interfered {
			vm.epInterfered = true
		}
	}

	if m.interval%int64(m.cfg.IntervalsPerEpoch) == 0 {
		es := m.epochSummary()
		for _, vm := range m.vms {
			vm.Account.Replenish()
		}
		if m.pending != nil {
			m.policy = m.pending
			m.pending = nil
		}
		m.policy.EpochStart(m)
		for _, o := range m.epochObs {
			o(es)
		}
	}
	for _, o := range m.obs {
		o(d)
	}
}

// EpochFraction returns the elapsed fraction of the current epoch.
func (m *Manager) EpochFraction() float64 {
	per := int64(m.cfg.IntervalsPerEpoch)
	return float64(m.interval%per) / float64(per)
}

// ApplyCap pushes a managed VM's desired cap to the hypervisor, flooring at
// MinCap and treating ≥100 as "uncapped". Cap *decreases* pass through the
// confidence gate: with Config.ConfidenceGate enabled and the VM's telemetry
// stale, the last-known cap holds (loosening is always allowed — releasing a
// VM never needs evidence). Applied decreases made on stale evidence are
// counted as wrongful throttles either way.
func (m *Manager) ApplyCap(vm *ManagedVM, cap float64) {
	if cap < MinCap {
		cap = MinCap
	}
	if cap >= 100 {
		vm.cap = 100
		if vm.capForced {
			vm.Dom.SetCap(0) // uncapped
			vm.capForced = false
		}
		return
	}
	if cap < vm.cap {
		stale := m.TelemetryStale(vm)
		if m.cfg.ConfidenceGate > 0 && stale {
			m.heldTightenings++
			return // hold the last-known cap
		}
		m.tightenings++
		if stale {
			m.wrongfulThrottles++
		}
	}
	vm.cap = cap
	vm.Dom.SetCap(int(cap + 0.5))
	vm.capForced = true
}

// applyLowResoDecay is the graceful degradation both policies share
// (paper §VI-B): when a VM's balance falls below MinResoFraction with more
// than MinEpochRemaining of the epoch left, its cap decays multiplicatively
// each interval instead of cutting the VM off abruptly.
func (m *Manager) applyLowResoDecay(vm *ManagedVM) bool {
	if vm.Account.Fraction() >= MinResoFraction {
		return false
	}
	if 1-m.EpochFraction() <= MinEpochRemaining {
		return false
	}
	m.ApplyCap(vm, vm.cap*CapDecay)
	return true
}
