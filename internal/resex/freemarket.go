package resex

// FreeMarket is the paper's first pricing policy (§VI-B, Algorithm 1):
// every VM buys resources at the same fixed price of 1 Reso per CPU-percent
// and 1 Reso per MTU, so each VM can consume up to its full allocation per
// epoch — the "maximize resource utilization" goal. The only intervention
// is graceful degradation: when a VM's remaining Resos fall below 10% with
// more than 10% of the epoch remaining, its CPU cap is reduced by 10% of
// its previous value each interval, avoiding an abrupt stall when the
// account runs dry. Caps are restored at the epoch boundary when the
// account replenishes.
//
// FreeMarket is work-conserving and deliberately latency-blind: it has no
// feedback channel, so it cannot eliminate congestion — it only bounds how
// much any VM can spend per epoch (the contrast Figure 9 draws against
// IOShares).
type FreeMarket struct {
	// CPURate and IORate are the fixed prices. Zero values default to the
	// paper's 1 Reso per unit.
	CPURate float64
	IORate  float64
}

// NewFreeMarket returns the policy with the paper's unit prices.
func NewFreeMarket() *FreeMarket { return &FreeMarket{CPURate: 1, IORate: 1} }

// Name implements Policy.
func (f *FreeMarket) Name() string { return "FreeMarket" }

// Interval implements Policy (Algorithm 1).
func (f *FreeMarket) Interval(m *Manager, d *IntervalData) {
	cpuRate, ioRate := f.CPURate, f.IORate
	if cpuRate == 0 {
		cpuRate = 1
	}
	if ioRate == 0 {
		ioRate = 1
	}
	for i := range d.VMs {
		t := &d.VMs[i]
		t.VM.Account.ChargeIO(t.MTUs, ioRate)
		t.VM.Account.ChargeCPU(t.CPUPct, cpuRate)
		if !m.applyLowResoDecay(t.VM) && t.VM.capForced && t.VM.Account.Fraction() >= MinResoFraction {
			// Balance recovered (epoch rolled): lift the cap.
			m.ApplyCap(t.VM, 100)
		}
	}
}

// EpochStart implements Policy: replenished accounts run uncapped again.
func (f *FreeMarket) EpochStart(m *Manager) {
	for _, vm := range m.vms {
		m.ApplyCap(vm, 100)
	}
}
