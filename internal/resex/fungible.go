package resex

import (
	"resex/internal/exchange"
	"resex/internal/resos"
)

// Fungible is the third pricing family, beyond FreeMarket and IOShares:
// entitlement-funded congestion pricing over the cross-dimension exchange
// (internal/exchange). Each VM holds per-dimension entitlements — CPU Resos
// and fabric Resos split out of its existing Reso allocation — on the
// host's trade book. Every interval the policy charges usage at the base
// rate and records per-dimension spend; at every epoch boundary the book
// settles: a VM short on fabric Resos buys them with surplus CPU Resos (and
// vice versa) at the rate the host's board quotes from congestion.
//
// Enforcement is the pace rule: once the fabric price signals congestion
// (EnforcePrice), a VM spending fabric Resos faster than its *funded*
// entitlement pace is capped by the overshoot ratio — the IOShares
// invariant cap = 100/rate, with rate = spend/pace instead of a blame
// counter. The difference from IOShares is when the throttle lands: IOShares
// waits for a victim's latency to rise and then searches for someone to
// blame; Fungible caps an overdrafted spender as soon as congestion prices
// its overdraft, before victims accumulate elevation. Under slack the price
// floor keeps everything uncapped and overdrafts ride free, so low-utilization
// behavior matches FreeMarket.
//
// All state is deterministic; the book's ledger nets to zero per dimension
// every epoch (internal/invariant verifies it) and Book().Checkpoint() is a
// pure observer, so runs remain byte-identical and snapshot-clean.
type Fungible struct {
	// Exchange configures the host's book; the zero value takes defaults.
	Exchange exchange.BookConfig
	// EnforcePrice is the fabric price at or above which entitlement
	// overdrafts are enforced with CPU caps. Below it capacity is slack and
	// overdrafts ride free. Default 1.15.
	EnforcePrice float64
	// OverdraftSlack multiplies the pro-rata entitlement pace before an
	// overdraft counts (burst allowance). Default 1.25.
	OverdraftSlack float64
	// MinEpochFraction is how much of the epoch must have elapsed before
	// pace enforcement engages (early intervals divide by too little
	// entitlement). Default 0.10.
	MinEpochFraction float64
	// GrowthRate multiplies the charging rate for every interval a VM stays
	// overdrafted while the fabric is priced congested — integral control:
	// a proportional cap of 100/overshoot barely touches a VMM-bypass
	// sender (tiny CPU slices still launch huge buffers, the paper's core
	// observation), so severity accumulates until the overdraft actually
	// stops, exactly as IOShares' blame counter does. Default 1.25.
	GrowthRate float64
	// ReleasePrice is the fabric price below which an elevated rate begins
	// to relax; between ReleasePrice and EnforcePrice the rate holds. The
	// hysteresis band matters because throttling is self-masking: capping
	// the spender drops measured utilization, the quote falls, and a single
	// release at the enforcement threshold lets the spender blast its queued
	// backlog — an oscillation whose duty cycle defeats the throttle
	// (IOShares' clean-run counter exists for exactly this reason).
	// Default 1.05.
	ReleasePrice float64
	// RelaxDecay multiplies an elevated rate per interval while the price
	// sits below ReleasePrice. Deliberately gentle: a released backlog
	// drains over a couple hundred intervals instead of one burst, and
	// GrowthRate recaptures quickly if congestion returns. Default 0.98.
	RelaxDecay float64
	// MaxRate clamps the implied charging rate (caps floor at MinCap long
	// before this). Default 100.
	MaxRate float64
	// WarmupIntervals suppresses enforcement for a VM's first intervals
	// under management, mirroring IOShares' warmup. Default 100.
	WarmupIntervals int64

	book *exchange.Book
}

// NewFungible returns the policy with calibrated defaults.
func NewFungible() *Fungible {
	return &Fungible{
		EnforcePrice:     1.15,
		ReleasePrice:     1.05,
		OverdraftSlack:   1.25,
		MinEpochFraction: 0.10,
		GrowthRate:       1.25,
		RelaxDecay:       0.98,
		MaxRate:          100,
		WarmupIntervals:  100,
	}
}

// Name implements Policy.
func (f *Fungible) Name() string { return "Fungible" }

// Book returns the host's trade book (lazily created), for the invariant
// auditor, the daemon, snapshots, and live views.
func (f *Fungible) Book() *exchange.Book {
	if f.book == nil {
		f.book = exchange.NewBook(f.Exchange)
	}
	return f.book
}

// Books returns the trade book of every non-nil manager whose active policy
// keeps one (exchange.BookKeeper), in manager order. It is empty unless a
// manager prices with the exchange, so audits and snapshots of the other
// policies carry no book section.
func Books(mgrs []*Manager) []*exchange.Book {
	var out []*exchange.Book
	for _, m := range mgrs {
		if m == nil {
			continue
		}
		if bk, ok := m.Policy().(exchange.BookKeeper); ok {
			out = append(out, bk.Book())
		}
	}
	return out
}

// baseGrant splits a VM's Reso allocation into per-dimension entitlements
// exactly as Manager.reallocate splits the supply: the whole per-VM CPU
// grant, plus the share-weighted slice of the link. When the exchange is
// configured with a physical fabric capacity, that capacity is what gets
// split — entitlements then sum to what the link can actually carry, so an
// overdraft means real oversubscription, not merely outspending an
// over-provisioned economy.
func (f *Fungible) baseGrant(m *Manager, vm *ManagedVM) exchange.Vec {
	total := 0
	for _, v := range m.vms {
		total += v.share
	}
	if total == 0 {
		total = 1
	}
	io := resos.Amount(resos.DefaultSupply().LinkMTUsPerEpoch)
	if c := f.Exchange.Capacity[exchange.DimFabric]; c > 0 {
		io = c
	}
	v := exchange.Vec{
		exchange.DimCPU:    resos.DefaultSupply().CPUAllocation(),
		exchange.DimFabric: io * resos.Amount(vm.share) / resos.Amount(total),
	}
	// The memory-bandwidth dimension only exists on hosts that declare a
	// physical per-epoch capacity for it (mixed-criticality fleets); without
	// one, grants stay zero and the dimension is inert end to end.
	if c := f.Exchange.Capacity[exchange.DimMemBW]; c > 0 {
		v[exchange.DimMemBW] = c * resos.Amount(vm.share) / resos.Amount(total)
	}
	return v
}

// membwActive reports whether this host prices memory bandwidth: a physical
// DimMemBW capacity is configured, so grants exist and overdrafts in the
// dimension are enforceable.
func (f *Fungible) membwActive() bool {
	return f.Exchange.Capacity[exchange.DimMemBW] > 0
}

// holder returns the VM's book position, joining it on first sight (a VM
// managed mid-epoch starts with its full pro-rata grant).
func (f *Fungible) holder(m *Manager, vm *ManagedVM) *exchange.Holder {
	name := vm.Dom.Name()
	if h := f.Book().Of(name); h != nil {
		return h
	}
	return f.Book().Join(name, f.baseGrant(m, vm))
}

// Interval implements Policy: charge at the base rate, record per-dimension
// spend, and enforce the pace rule against congestion-priced overdrafts.
func (f *Fungible) Interval(m *Manager, d *IntervalData) {
	frac := m.EpochFraction()
	price := f.Book().Board().Price(exchange.DimFabric)
	membw := f.membwActive()
	var memPrice float64
	if membw {
		memPrice = f.book.Board().Price(exchange.DimMemBW)
	}
	for i := range d.VMs {
		t := &d.VMs[i]
		vm := t.VM
		h := f.holder(m, vm)
		f.book.Spend(h, exchange.DimCPU, vm.Account.ChargeCPU(t.CPUPct, 1))
		f.book.Spend(h, exchange.DimFabric, vm.Account.ChargeIO(t.MTUs, 1))
		// Memory-bandwidth spend is book-settled only: it never touches the
		// VM's Reso account, so the account-conservation identity (charges =
		// CPU + IO charges) is untouched by the third dimension.
		if membw {
			f.book.Spend(h, exchange.DimMemBW, resos.Amount(t.MemUnits))
		}
		if m.applyLowResoDecay(vm) {
			continue
		}
		if vm.intervals <= f.WarmupIntervals || frac < f.MinEpochFraction {
			continue
		}

		// Overshoot: fabric spend relative to the funded entitlement pace.
		pace := float64(h.Entitlement(exchange.DimFabric)) * frac * f.OverdraftSlack
		spent := float64(h.Spent(exchange.DimFabric))
		over := f.MaxRate
		if pace > 0 {
			over = spent / pace
		} else if spent == 0 {
			over = 0
		}
		// On mixed-criticality hosts, a congestion-priced memory-bandwidth
		// overdraft is enforced through the same CPU-cap lever — the
		// hypervisor has no finer control over memory traffic than over
		// bypass I/O (H-MBR's premise). Inactive hosts skip all of this, so
		// two-dimension fleets take byte-identical decisions.
		memEnforce, memHold := false, false
		if membw {
			memPace := float64(h.Entitlement(exchange.DimMemBW)) * frac * f.OverdraftSlack
			memSpent := float64(h.Spent(exchange.DimMemBW))
			overMem := f.MaxRate
			if memPace > 0 {
				overMem = memSpent / memPace
			} else if memSpent == 0 {
				overMem = 0
			}
			memEnforce = memPrice >= f.EnforcePrice && overMem > 1
			memHold = memPrice >= f.ReleasePrice
		}
		switch {
		case (price >= f.EnforcePrice && over > 1) || memEnforce:
			if !m.AllowTighten(vm) {
				continue // stale telemetry: hold the last-known cap
			}
			vm.rate *= f.GrowthRate
			if vm.rate > f.MaxRate {
				vm.rate = f.MaxRate
			}
			m.ApplyCap(vm, 100/vm.rate)
		case price >= f.ReleasePrice || memHold:
			// Inside the hysteresis band: hold the elevated rate. Relaxing
			// on the pace alone re-releases the backlog the cap holds back.
		case vm.rate > 1:
			vm.rate *= f.RelaxDecay
			if vm.rate < 1 {
				vm.rate = 1
			}
			m.ApplyCap(vm, 100/vm.rate)
		}
	}
}

// EpochStart implements Policy: refresh book membership and grants, settle
// the finished epoch's trades, and uncap VMs whose rate has fully relaxed
// (same contract as IOShares).
func (f *Fungible) EpochStart(m *Manager) {
	f.syncHolders(m)
	f.Book().CloseEpoch()
	for _, vm := range m.vms {
		if vm.rate <= 1 {
			m.ApplyCap(vm, 100)
		}
	}
}

// syncHolders reconciles the book with the managed-VM set: departed VMs
// leave (their entitlement returns to the pool implicitly — grants are
// recomputed from the supply), present VMs get their grant refreshed for
// share or population changes.
func (f *Fungible) syncHolders(m *Manager) {
	bk := f.Book()
	for _, h := range append([]*exchange.Holder(nil), bk.Holders()...) {
		found := false
		for _, vm := range m.vms {
			if vm.Dom.Name() == h.Name() {
				found = true
				break
			}
		}
		if !found {
			bk.Leave(h.Name())
		}
	}
	for _, vm := range m.vms {
		h := f.holder(m, vm)
		bk.SetBase(h, f.baseGrant(m, vm))
	}
}
