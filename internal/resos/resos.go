// Package resos implements the paper's resource currency: Resos, the
// unified unit in which VMs "buy" both CPU and InfiniBand I/O.
//
// Supply (paper §VI-A): the aggregate Resos in the system correspond to the
// physical resources per epoch. A full PCPU is 100 CPU-percent per 1 ms
// interval × 1000 intervals = 100,000 Resos per 1 s epoch at the base rate
// of 1 Reso per CPU-percent. The IB link moves LinkBW/MTU = 1 GB/s / 1 KB =
// 1,048,576 MTUs per epoch at 1 Reso per MTU, shared among the collocated
// VMs (equally, or by weight). Each VM's account is replenished to its
// allocation at every epoch boundary; leftover Resos are discarded.
//
// Demand: every interval, ResEx converts the VM's observed CPU percent and
// MTUs sent into Resos at the *current charging rate* and deducts them.
// FreeMarket keeps the rate at 1; IOShares raises an interfering VM's rate,
// making the same I/O drain its account faster — congestion pricing.
package resos

import "fmt"

// Amount is a quantity of Resos.
type Amount int64

// The platform's aggregate resources per epoch: the paper's testbed supply.
const (
	// cpuPctPerInterval is the CPU capacity charged per interval, in
	// percent of one PCPU: a whole dedicated core, as the paper assigns one
	// PCPU per VM.
	cpuPctPerInterval = 100
	// intervalsPerEpoch is the number of charge intervals per epoch (1 ms
	// intervals, 1 s epoch).
	intervalsPerEpoch = 1000
	// LinkMTUsPerEpoch is the shared link capacity in MTUs per epoch
	// (1 GB/s at 1 KB MTU).
	LinkMTUsPerEpoch Amount = 1 << 20
	// CPUAllocation is the per-VM CPU Resos per epoch (each VM owns a
	// whole PCPU in the paper's setup).
	CPUAllocation Amount = cpuPctPerInterval * intervalsPerEpoch
)

// IOAllocation returns the per-VM share of the link for n collocated VMs
// sharing equally.
func IOAllocation(n int) Amount {
	if n < 1 {
		n = 1
	}
	return LinkMTUsPerEpoch / Amount(n)
}

// Allocation returns the total per-VM Resos per epoch for n equal sharers.
func Allocation(n int) Amount {
	return CPUAllocation + IOAllocation(n)
}

// Account is one VM's Reso balance with cumulative charge accounting.
type Account struct {
	name       string
	alloc      Amount
	balance    Amount
	epoch      int64
	cpuCharged Amount // cumulative across epochs
	ioCharged  Amount
	discarded  Amount // leftover thrown away at replenishment
	forgiven   Amount // overdraft wiped out at replenishment
}

// NewAccount creates an account with the given per-epoch allocation,
// starting with a full balance.
func NewAccount(name string, alloc Amount) *Account {
	if alloc < 0 {
		alloc = 0
	}
	return &Account{name: name, alloc: alloc, balance: alloc}
}

// Name returns the account's label.
func (a *Account) Name() string { return a.name }

// Allocation returns the per-epoch allocation.
func (a *Account) Allocation() Amount { return a.alloc }

// SetAllocation changes the per-epoch allocation (priority/weight changes);
// it takes effect at the next replenishment.
func (a *Account) SetAllocation(alloc Amount) {
	if alloc < 0 {
		alloc = 0
	}
	a.alloc = alloc
}

// Balance returns the current balance. It can be negative: charges within
// an interval are applied in full even if they overdraw (the pricing policy
// reacts by capping, not by blocking retroactively).
func (a *Account) Balance() Amount { return a.balance }

// Fraction returns balance/allocation in [−∞, 1]; 0 when unallocated.
func (a *Account) Fraction() float64 {
	if a.alloc == 0 {
		return 0
	}
	return float64(a.balance) / float64(a.alloc)
}

// Epoch returns how many replenishments have occurred.
func (a *Account) Epoch() int64 { return a.epoch }

// ChargeCPU deducts CPU usage: pct CPU-percent at the given rate (Resos per
// percent). It returns the amount deducted.
func (a *Account) ChargeCPU(pct float64, rate float64) Amount {
	amt := roundAmount(pct * rate)
	a.balance -= amt
	a.cpuCharged += amt
	return amt
}

// ChargeIO deducts I/O usage: mtus MTUs at the given rate (Resos per MTU).
// It returns the amount deducted.
func (a *Account) ChargeIO(mtus int64, rate float64) Amount {
	amt := roundAmount(float64(mtus) * rate)
	a.balance -= amt
	a.ioCharged += amt
	return amt
}

// Replenish resets the balance to the allocation at an epoch boundary.
// Leftover Resos are discarded and overdrafts forgiven (both accounted),
// per the paper.
func (a *Account) Replenish() {
	if a.balance > 0 {
		a.discarded += a.balance
	} else if a.balance < 0 {
		a.forgiven += -a.balance
	}
	a.balance = a.alloc
	a.epoch++
}

// CPUCharged returns cumulative CPU Resos charged.
func (a *Account) CPUCharged() Amount { return a.cpuCharged }

// IOCharged returns cumulative I/O Resos charged.
func (a *Account) IOCharged() Amount { return a.ioCharged }

// Discarded returns cumulative Resos thrown away at epoch boundaries.
func (a *Account) Discarded() Amount { return a.discarded }

// Forgiven returns cumulative overdraft wiped out at epoch boundaries.
// The conservation identity epochs×allocation + forgiven = charged +
// discarded + balance always holds (property-tested).
func (a *Account) Forgiven() Amount { return a.forgiven }

// String renders the account state.
func (a *Account) String() string {
	return fmt.Sprintf("%s: %d/%d Resos (epoch %d)", a.name, a.balance, a.alloc, a.epoch)
}

// roundAmount converts a fractional charge to Resos, rounding half up, and
// never returns a negative charge.
func roundAmount(x float64) Amount {
	if x <= 0 {
		return 0
	}
	return Amount(x + 0.5)
}
