package resos

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultSupplyMatchesPaper(t *testing.T) {
	// §VI-A: 100 percent × 1000 intervals = 100,000 CPU Resos.
	if CPUAllocation != 100000 {
		t.Errorf("CPU allocation = %d, want 100000", CPUAllocation)
	}
	// 1GB/s ÷ 1KB = 1,048,576 MTUs per epoch.
	if LinkMTUsPerEpoch != 1048576 {
		t.Errorf("link MTUs = %d", LinkMTUsPerEpoch)
	}
	if IOAllocation(2) != 524288 {
		t.Errorf("2-VM IO share = %d, want 524288", IOAllocation(2))
	}
	if Allocation(2) != 624288 {
		t.Errorf("2-VM total = %d, want 624288", Allocation(2))
	}
	if IOAllocation(0) != 1048576 {
		t.Errorf("degenerate sharer count: %d", IOAllocation(0))
	}
}

func TestAccountCharges(t *testing.T) {
	a := NewAccount("vm1", 1000)
	if a.Balance() != 1000 || a.Name() != "vm1" || a.Allocation() != 1000 {
		t.Fatalf("fresh account: %v", a)
	}
	if amt := a.ChargeCPU(50, 1); amt != 50 {
		t.Errorf("CPU charge = %d", amt)
	}
	if amt := a.ChargeIO(100, 1); amt != 100 {
		t.Errorf("IO charge = %d", amt)
	}
	if a.Balance() != 850 {
		t.Errorf("balance = %d, want 850", a.Balance())
	}
	if a.CPUCharged() != 50 || a.IOCharged() != 100 {
		t.Errorf("cumulative: cpu=%d io=%d", a.CPUCharged(), a.IOCharged())
	}
	if f := a.Fraction(); f != 0.85 {
		t.Errorf("fraction = %v", f)
	}
	if !strings.Contains(a.String(), "850/1000") {
		t.Errorf("String = %q", a.String())
	}
}

func TestChargeRatesScale(t *testing.T) {
	a := NewAccount("vm", 100000)
	// Congestion pricing: double rate doubles the deduction.
	if amt := a.ChargeIO(64, 2.0); amt != 128 {
		t.Errorf("rate-2 charge = %d, want 128", amt)
	}
	if amt := a.ChargeCPU(10, 1.5); amt != 15 {
		t.Errorf("rate-1.5 CPU charge = %d, want 15", amt)
	}
	// Fractional charges round half-up.
	if amt := a.ChargeIO(1, 0.4); amt != 0 {
		t.Errorf("0.4 rounds to %d, want 0", amt)
	}
	if amt := a.ChargeIO(1, 0.6); amt != 1 {
		t.Errorf("0.6 rounds to %d, want 1", amt)
	}
	// Negative/zero charges never credit.
	if amt := a.ChargeIO(-10, 1); amt != 0 {
		t.Errorf("negative charge = %d", amt)
	}
}

func TestOverdraft(t *testing.T) {
	a := NewAccount("vm", 100)
	a.ChargeIO(150, 1)
	if a.Balance() != -50 {
		t.Errorf("balance = %d, want -50 (overdraft allowed)", a.Balance())
	}
	if a.Fraction() != -0.5 {
		t.Errorf("fraction = %v", a.Fraction())
	}
}

func TestReplenishDiscardsLeftover(t *testing.T) {
	a := NewAccount("vm", 1000)
	a.ChargeIO(300, 1)
	a.Replenish()
	if a.Balance() != 1000 {
		t.Errorf("balance after replenish = %d", a.Balance())
	}
	if a.Discarded() != 700 {
		t.Errorf("discarded = %d, want 700", a.Discarded())
	}
	if a.Epoch() != 1 {
		t.Errorf("epoch = %d", a.Epoch())
	}
	// Overdrawn accounts replenish to full; the debt is forgiven.
	a.ChargeIO(2000, 1)
	a.Replenish()
	if a.Balance() != 1000 || a.Discarded() != 700 {
		t.Errorf("after overdraft replenish: bal=%d disc=%d", a.Balance(), a.Discarded())
	}
	if a.Forgiven() != 1000 {
		t.Errorf("forgiven = %d, want 1000", a.Forgiven())
	}
}

func TestSetAllocation(t *testing.T) {
	a := NewAccount("vm", 1000)
	a.SetAllocation(2000)
	if a.Balance() != 1000 {
		t.Error("SetAllocation changed balance immediately")
	}
	a.Replenish()
	if a.Balance() != 2000 {
		t.Errorf("balance after replenish = %d", a.Balance())
	}
	a.SetAllocation(-5)
	a.Replenish()
	if a.Balance() != 0 {
		t.Error("negative allocation not clamped")
	}
	if NewAccount("x", -1).Balance() != 0 {
		t.Error("negative initial allocation not clamped")
	}
}

func TestZeroAllocationFraction(t *testing.T) {
	a := NewAccount("vm", 0)
	if a.Fraction() != 0 {
		t.Errorf("fraction = %v", a.Fraction())
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: allocation×epochs + forgiven overdraft = charged +
	// discarded + final balance, for any sequence of charges.
	f := func(charges []uint16) bool {
		a := NewAccount("vm", 10000)
		epochs := int64(1) // initial fill counts as one allocation grant
		for i, c := range charges {
			a.ChargeIO(int64(c%2000), 1)
			if i%7 == 6 {
				a.Replenish()
				epochs++
			}
		}
		total := Amount(epochs)*10000 + a.Forgiven()
		return total == a.CPUCharged()+a.IOCharged()+a.Discarded()+a.Balance()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
