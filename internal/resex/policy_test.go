package resex

import (
	"math"
	"testing"

	"resex/internal/resos"
)

// mkVM builds a bare ManagedVM for white-box policy-math tests.
func mkVM(name string, baseline float64, ewma float64) *ManagedVM {
	vm := &ManagedVM{rate: 1, cap: 100, share: 1, baseline: baseline, mtuEwma: ewma}
	vm.Account = resos.NewAccount(name, 1000000)
	return vm
}

func TestInterferencePctMeanIncrease(t *testing.T) {
	io := NewIOShares()
	vm := mkVM("v", 200, 100)
	// 50% above baseline.
	got := io.interferencePct(vm, LatencyWindow{Count: 10, Mean: 300})
	if got != 50 {
		t.Errorf("intfPct = %v, want 50", got)
	}
	// Below baseline clamps to zero.
	if got := io.interferencePct(vm, LatencyWindow{Count: 10, Mean: 150}); got != 0 {
		t.Errorf("below-baseline pct = %v", got)
	}
	// No reports → no signal.
	if got := io.interferencePct(vm, LatencyWindow{}); got != 0 {
		t.Errorf("empty window pct = %v", got)
	}
	// No baseline → no signal.
	if got := io.interferencePct(mkVM("x", 0, 0), LatencyWindow{Count: 5, Mean: 500}); got != 0 {
		t.Errorf("no-baseline pct = %v", got)
	}
}

func TestInterferencePctJitterCriterion(t *testing.T) {
	io := NewIOShares()
	vm := mkVM("v", 200, 100)
	// Mean at baseline but jitter 50% of mean: beyond the 30% allowance
	// the excess (20%) counts as interference.
	got := io.interferencePct(vm, LatencyWindow{Count: 10, Mean: 200, Std: 100})
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("jitter pct = %v, want 20", got)
	}
	// Jitter within the allowance does not trigger.
	if got := io.interferencePct(vm, LatencyWindow{Count: 10, Mean: 200, Std: 40}); got != 0 {
		t.Errorf("benign jitter pct = %v", got)
	}
	// Criterion can be disabled.
	io.UseDeviation = false
	if got := io.interferencePct(vm, LatencyWindow{Count: 10, Mean: 200, Std: 100}); got != 0 {
		t.Errorf("disabled deviation pct = %v", got)
	}
}

func TestFindInterfererUsesSmoothedRates(t *testing.T) {
	io := NewIOShares()
	victim := mkVM("victim", 200, 100)
	heavy := mkVM("heavy", 0, 500)
	light := mkVM("light", 0, 50)
	d := &IntervalData{VMs: []VMTick{
		{VM: victim},
		{VM: light},
		{VM: heavy},
	}}
	intf := io.findInterferer(d, 0)
	if intf == nil || intf.VM != heavy {
		t.Fatalf("interferer = %+v, want heavy", intf)
	}
	// A peer sending comparably (within minShare) is never blamed.
	heavy.mtuEwma = 110 // only 1.1× the victim
	if got := io.findInterferer(d, 0); got != nil {
		t.Errorf("comparable peer blamed: %v", got.VM.Account.Name())
	}
	// No peers at all.
	solo := &IntervalData{VMs: []VMTick{{VM: victim}}}
	if io.findInterferer(solo, 0) != nil {
		t.Error("interferer found with no peers")
	}
}

func TestCapRateInvariant(t *testing.T) {
	// The paper's formula NewCap = 100·r/(r+r') is applied as the
	// invariant cap = 100/rate. Check both readings coincide step by step.
	io := NewIOShares()
	io.WarmupIntervals = 0
	vm := mkVM("victim", 200, 100)
	intf := mkVM("intf", 0, 900)
	rate := 1.0
	capPaper := 100.0
	for step := 0; step < 5; step++ {
		d := &IntervalData{Index: int64(step + 10), VMs: []VMTick{
			{VM: vm, MTUs: 100, Latency: LatencyWindow{Count: 5, Mean: 300}},
			{VM: intf, MTUs: 900},
		}}
		// Manager-free invocation: exercise only the detection math by
		// replicating the paper's update on the side.
		ioShare := intf.mtuEwma / (intf.mtuEwma + vm.mtuEwma)
		intfPct := io.interferencePct(vm, d.VMs[0].Latency)
		rPrime := ioShare * intfPct
		capPaper *= rate / (rate + rPrime)
		rate += rPrime

		// Policy's own bookkeeping.
		applyDetection(io, d, 0)
		if math.Abs(intf.rate-rate) > 1e-9 {
			t.Fatalf("step %d: rate %v vs paper %v", step, intf.rate, rate)
		}
		wantCap := 100 / rate
		if math.Abs(intf.cap-wantCap) > 0.5 && intf.cap > 1 {
			t.Fatalf("step %d: cap %v vs invariant %v", step, intf.cap, wantCap)
		}
		if math.Abs(capPaper-wantCap) > 1e-6 {
			t.Fatalf("step %d: paper reading %v diverged from invariant %v", step, capPaper, wantCap)
		}
	}
}

// applyDetection runs just the detection arm of IOShares.Interval against
// a minimal manager.
func applyDetection(io *IOShares, d *IntervalData, victim int) {
	m := &Manager{cfg: Config{}.withDefaults()}
	m.vms = nil
	for i := range d.VMs {
		m.vms = append(m.vms, d.VMs[i].VM)
	}
	// Mimic the detection pass for the single victim.
	var totalRate float64
	for i := range d.VMs {
		totalRate += d.VMs[i].VM.mtuEwma
	}
	t := &d.VMs[victim]
	intfPct := io.interferencePct(t.VM, t.Latency)
	if intfPct <= slaThresholdPct {
		return
	}
	intf := io.findInterferer(d, victim)
	if intf == nil {
		return
	}
	rPrime := (intf.VM.mtuEwma / totalRate) * intfPct
	intf.VM.rate += rPrime
	intf.VM.cap = 100 / intf.VM.rate
	if intf.VM.cap < 1 {
		intf.VM.cap = 1
	}
}

func TestFreeMarketRatesDefault(t *testing.T) {
	fm := NewFreeMarket() // 1 Reso per CPU-percent and per MTU
	vmA := mkVM("a", 0, 0)
	m := &Manager{cfg: Config{}.withDefaults(), vms: []*ManagedVM{vmA}}
	d := &IntervalData{Index: 1, VMs: []VMTick{{VM: vmA, MTUs: 100, CPUPct: 50}}}
	fm.Interval(m, d)
	if vmA.Account.IOCharged() != 100 || vmA.Account.CPUCharged() != 50 {
		t.Errorf("default-rate charges: io=%d cpu=%d",
			vmA.Account.IOCharged(), vmA.Account.CPUCharged())
	}
	if fm.Name() != "FreeMarket" || NewIOShares().Name() != "IOShares" {
		t.Error("policy names")
	}
}

func TestIntervalDataTotalMTUs(t *testing.T) {
	d := &IntervalData{VMs: []VMTick{{MTUs: 3}, {MTUs: 4}}}
	if d.TotalMTUs() != 7 {
		t.Errorf("TotalMTUs = %d", d.TotalMTUs())
	}
}
