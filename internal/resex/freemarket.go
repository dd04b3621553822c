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
type FreeMarket struct{}

// freeMarketRate is the fixed price: the paper's 1 Reso per CPU-percent and
// 1 Reso per MTU.
const freeMarketRate = 1

// NewFreeMarket returns the policy.
func NewFreeMarket() *FreeMarket { return &FreeMarket{} }

// Name implements Policy.
func (f *FreeMarket) Name() string { return "FreeMarket" }

// Interval implements Policy (Algorithm 1).
func (f *FreeMarket) Interval(m *Manager, d *IntervalData) {
	for i := range d.VMs {
		t := &d.VMs[i]
		t.VM.Account.ChargeIO(t.MTUs, freeMarketRate)
		t.VM.Account.ChargeCPU(t.CPUPct, freeMarketRate)
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
