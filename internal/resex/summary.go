package resex

import "resex/internal/xen"

// VMEpochSummary is one VM's interference digest for one epoch: how
// interfered the VM was and how hard its policy throttled it. It is what
// the fleet scheduler consumes; the full per-VM ledger is the manager's
// Checkpoint export.
type VMEpochSummary struct {
	Dom xen.DomID
	// IntfPercent is the mean latency elevation over the baseline across
	// the epoch's reporting intervals, in percent, floored at zero. It is
	// computed by the manager independently of the pricing policy, so the
	// summary carries an interference signal even under FreeMarket (which
	// never looks at latency itself).
	IntfPercent float64
	// Cap is the VM's CPU cap at epoch end (100 = uncapped).
	Cap float64
}

// EpochSummary is the per-host digest exported at each epoch boundary.
// VMs appear in manage order.
type EpochSummary struct {
	VMs []VMEpochSummary
}

// VM returns the summary entry for a domain, or nil.
func (es *EpochSummary) VM(dom xen.DomID) *VMEpochSummary {
	for i := range es.VMs {
		if es.VMs[i].Dom == dom {
			return &es.VMs[i]
		}
	}
	return nil
}

// EpochObserver receives the host digest at every epoch boundary.
type EpochObserver func(EpochSummary)

// ObserveEpoch registers an epoch observer. At an epoch boundary the
// manager builds the summary, replenishes every account, swaps in a staged
// policy and runs the policy's EpochStart; only then are epoch observers
// called, so an observer sees the new epoch's ledger beside the summary
// of the old one.
func (m *Manager) ObserveEpoch(o EpochObserver) { m.epochObs = append(m.epochObs, o) }

// epochSummary builds the digest from the per-VM epoch accumulators and
// resets them.
func (m *Manager) epochSummary() EpochSummary {
	var es EpochSummary
	for _, vm := range m.vms {
		es.VMs = append(es.VMs, VMEpochSummary{
			Dom:         vm.Dom.ID(),
			IntfPercent: vm.epElev.Mean(),
			Cap:         vm.cap,
		})
		vm.epMTUs = 0
		vm.epElev.Reset()
	}
	return es
}
