package resex

// IOShares is the paper's congestion-pricing policy (§VI-C, Algorithm 2),
// built for the "lower latency variation" goal. Each interval, for every
// monitored VM it
//
//  1. computes the VM's I/O interference percentage from the latency
//     feedback its in-VM agent reports (GetIOIntf): the percent increase of
//     the recent mean (or deviation) over the VM's SLA/base latency;
//  2. if that exceeds the SLA threshold, identifies the interfering VM
//     (GetIOIntfVMId): the collocated VM with the largest MTU count this
//     interval — provided it is actually sending more than the victim, so
//     two identical workloads never penalize each other (Figure 8);
//  3. computes the interferer's I/O share and raises its charging rate by
//     r' = IOShare × IntfPercent, applying the paper's cap formula
//     NewCap = 100·r/(r+r') as a multiplicative decrease — equivalently,
//     the invariant cap = 100/rate is maintained;
//  4. charges every VM at its current rate, so interferers also drain
//     their Reso accounts faster.
//
// When a VM stops causing interference (no detection for backoffAfter
// intervals), its rate decays toward 1 and its cap recovers — the back-off
// behaviour Figure 8's no-interference cases demonstrate.
type IOShares struct {
	// UseDeviation also triggers on jitter: the interference percentage is
	// max(mean increase, deviation increase). Default true.
	UseDeviation bool
	// WarmupIntervals suppresses detection until usage estimates have
	// history. Default 20.
	WarmupIntervals int64
}

// IOShares' calibration.
const (
	// slaThresholdPct is the interference percentage that triggers
	// repricing.
	slaThresholdPct = 10
	// jitterAllowancePct is the relative standard deviation (percent of
	// the mean) regarded as normal before jitter counts as interference.
	jitterAllowancePct = 30
	// backoffAfter is the clean-interval streak after which an elevated
	// rate starts decaying.
	backoffAfter = 50
	// backoffDecay multiplies the rate per clean interval past the streak.
	backoffDecay = 0.95
	// minShare is the minimum MTU-share advantage an interferer must have
	// over the victim (interfererMTUs > minShare × victimMTUs).
	minShare = 1.25
)

// maxRate clamps a VM's charging rate under IOShares and Fungible (caps
// floor at MinCap long before this).
const maxRate = 100.0

// NewIOShares returns the policy with paper-calibrated defaults.
func NewIOShares() *IOShares {
	return &IOShares{UseDeviation: true, WarmupIntervals: 20}
}

// Name implements Policy.
func (io *IOShares) Name() string { return "IOShares" }

// Interval implements Policy (Algorithm 2).
func (io *IOShares) Interval(m *Manager, d *IntervalData) {
	var totalRate float64
	for i := range d.VMs {
		totalRate += d.VMs[i].VM.mtuEwma
	}
	// Detection pass: find victims and raise interferer rates.
	for i := range d.VMs {
		t := &d.VMs[i]
		vm := t.VM
		// Per-VM warmup: a VM managed mid-run must build its own latency
		// and usage history before it may claim victimhood — during its
		// MTU-EWMA ramp an identical established neighbor would otherwise
		// clear the minShare guard and be blamed for arrival jitter.
		if vm.intervals <= io.WarmupIntervals || totalRate <= 0 {
			vm.interfered = false
			continue
		}
		intfPct := io.interferencePct(vm, t.Latency)
		if intfPct <= slaThresholdPct {
			vm.interfered = false
			continue
		}
		intf := io.findInterferer(d, i)
		if intf == nil {
			vm.interfered = false
			continue
		}
		vm.interfered = true
		if !m.AllowTighten(intf.VM) {
			// The victim's elevation is real (agents report latency
			// directly), but the attribution rests on IBMon counts that are
			// currently stale: hold the blamed VM's rate and cap until the
			// evidence recovers instead of compounding a charge we cannot
			// verify.
			continue
		}
		ioShare := intf.VM.mtuEwma / totalRate
		rPrime := ioShare * intfPct
		if rPrime <= 0 {
			continue
		}
		// Paper: NewCap = 100·r/(r+r'); with cap ≡ 100/rate this is a
		// multiplicative decrease of the interferer's cap.
		intf.VM.rate += rPrime
		if intf.VM.rate > maxRate {
			intf.VM.rate = maxRate
		}
		intf.VM.cleanRuns = 0
		m.ApplyCap(intf.VM, 100/intf.VM.rate)
	}
	// Charging + back-off pass.
	for i := range d.VMs {
		t := &d.VMs[i]
		vm := t.VM
		vm.Account.ChargeIO(t.MTUs, vm.rate)
		vm.Account.ChargeCPU(t.CPUPct, vm.rate)
		m.applyLowResoDecay(vm)

		if vm.rate > 1 {
			if io.causedInterference(d, vm) {
				vm.cleanRuns = 0
			} else {
				vm.cleanRuns++
				if vm.cleanRuns > backoffAfter {
					vm.rate *= backoffDecay
					if vm.rate < 1 {
						vm.rate = 1
					}
					m.ApplyCap(vm, 100/vm.rate)
				}
			}
		}
	}
}

// interferencePct is GetIOIntf: the percent increase of the reported
// latency (mean, optionally deviation) over the VM's reference.
func (io *IOShares) interferencePct(vm *ManagedVM, lw LatencyWindow) float64 {
	if lw.Count == 0 || vm.baseline <= 0 {
		return 0
	}
	pct := 100 * (lw.Mean - vm.baseline) / vm.baseline
	if io.UseDeviation && lw.Mean > 0 && lw.Std > 0 {
		// Jitter relative to the mean, beyond the normal allowance.
		jitterPct := 100*lw.Std/lw.Mean - jitterAllowancePct
		if jitterPct > pct {
			pct = jitterPct
		}
	}
	if pct < 0 {
		return 0
	}
	return pct
}

// findInterferer is GetIOIntfVMId: among the other monitored VMs, the
// biggest sender — judged on smoothed MTU rates so that per-interval
// arrival noise between comparable workloads never flips the attribution
// (two identical 64KB apps must not blame each other).
func (io *IOShares) findInterferer(d *IntervalData, victim int) *VMTick {
	var best *VMTick
	for i := range d.VMs {
		if i == victim {
			continue
		}
		t := &d.VMs[i]
		if best == nil || t.VM.mtuEwma > best.VM.mtuEwma {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	if best.VM.mtuEwma <= minShare*d.VMs[victim].VM.mtuEwma {
		return nil // comparable I/O: nobody to blame (64KB vs 64KB case)
	}
	return best
}

// causedInterference reports whether vm was blamed for any victim this
// interval.
func (io *IOShares) causedInterference(d *IntervalData, vm *ManagedVM) bool {
	for i := range d.VMs {
		t := &d.VMs[i]
		if t.VM == vm || !t.VM.interfered {
			continue
		}
		intf := io.findInterferer(d, i)
		if intf != nil && intf.VM == vm {
			return true
		}
	}
	return false
}

// EpochStart implements Policy: rates persist across epochs (congestion
// state is not an accounting artifact), but a VM whose rate has fully
// decayed runs uncapped again.
func (io *IOShares) EpochStart(m *Manager) {
	for _, vm := range m.vms {
		if vm.rate <= 1 {
			m.ApplyCap(vm, 100)
		}
	}
}
