package resex

import (
	"testing"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resos"
	"resex/internal/sim"
	"resex/internal/xen"
)

// testRig is a full host-A/host-B testbed with a reporting app, an optional
// interfering app, and a ResEx manager on host A's dom0.
type testRig struct {
	tb   *cluster.Testbed
	rep  *cluster.App
	intf *cluster.App
	mgr  *Manager
	mon  *ibmon.Monitor
}

// newRig assembles the paper's standard experiment: 64KB reporting app vs
// 2MB interferer, ResEx managing both server VMs on host A.
func newRig(t *testing.T, policy Policy, withIntf bool, slaUs float64) *testRig {
	t.Helper()
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)

	rep, err := tb.NewApp("rep", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}

	dom0 := hostA.Dom0VCPU()
	mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
	mgr := New(tb.Eng, hostA.HV, mon, dom0, policy, Config{})

	if _, err := mgr.Manage(rep.ServerVM.Dom, rep.Server.SendCQ(), slaUs); err != nil {
		t.Fatal(err)
	}
	agent := benchex.NewAgent(rep.Server, rep.ServerVM.Dom.ID(), mgr)

	r := &testRig{tb: tb, rep: rep, mgr: mgr, mon: mon}
	if withIntf {
		intf, err := tb.NewApp("intf", hostA, hostB,
			benchex.ServerConfig{BufferSize: 2 << 20, PipelineResponses: true},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Manage(intf.ServerVM.Dom, intf.Server.SendCQ(), 0); err != nil {
			t.Fatal(err)
		}
		r.intf = intf
		intf.Start()
	}
	rep.Start()
	agent.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	return r
}

func (r *testRig) shutdown() { r.tb.Eng.Shutdown() }

func TestManageAllocations(t *testing.T) {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("a", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	app2, err := tb.NewApp("b", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	mon := ibmon.New(hostA.HV, nil, ibmon.Config{})
	mgr := New(tb.Eng, hostA.HV, mon, nil, NewFreeMarket(), Config{})
	vm1, err := mgr.Manage(app.ServerVM.Dom, app.Server.SendCQ(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want1 := resos.Allocation(1)
	if vm1.Account.Allocation() != want1 || vm1.Account.Balance() != want1 {
		t.Errorf("single VM allocation = %d, want %d", vm1.Account.Allocation(), want1)
	}
	vm2, err := mgr.Manage(app2.ServerVM.Dom, app2.Server.SendCQ(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want2 := resos.Allocation(2)
	if vm1.Account.Allocation() != want2 || vm2.Account.Allocation() != want2 {
		t.Errorf("shared allocations = %d/%d, want %d",
			vm1.Account.Allocation(), vm2.Account.Allocation(), want2)
	}
	if mgr.VM(app.ServerVM.Dom.ID()) != vm1 || mgr.VM(xen.DomID(99)) != nil {
		t.Error("VM lookup")
	}
	if len(mgr.VMs()) != 2 {
		t.Error("VMs()")
	}
	// Managing an unknown domain fails.
	other := xen.New(sim.New(), xen.Config{}).CreateDomain("x", 1<<20, 0)
	if _, err := mgr.Manage(other, app.Server.SendCQ(), 0); err == nil {
		t.Error("foreign domain accepted")
	}
}

func TestFreeMarketChargesUsage(t *testing.T) {
	r := newRig(t, NewFreeMarket(), false, 0)
	defer r.shutdown()
	r.tb.Eng.RunUntil(200 * sim.Millisecond)
	vm := r.mgr.VMs()[0]
	if vm.Account.IOCharged() == 0 {
		t.Error("no I/O Resos charged despite traffic")
	}
	if vm.Account.CPUCharged() == 0 {
		t.Error("no CPU Resos charged despite spinning server")
	}
	// A 64KB closed-loop app never exhausts its Resos: stays uncapped.
	if vm.Dom.Cap() != 0 {
		t.Errorf("reporting VM capped at %d%% without cause", vm.Dom.Cap())
	}
	if vm.Account.Fraction() > 1 {
		t.Errorf("fraction = %v", vm.Account.Fraction())
	}
	// CPU charge plausibility: the spinning server burns ~100 pct/interval;
	// over 200 intervals that is ~20000 Resos (within loose bounds).
	if got := float64(vm.Account.CPUCharged()); got < 10000 || got > 25000 {
		t.Errorf("CPU charged = %v over 200ms, want ~20000", got)
	}
}

func TestFreeMarketCapsExhaustedVM(t *testing.T) {
	// The 2MB interferer burns >700k Resos/s against a 624k allocation:
	// FreeMarket must engage the graceful cap decay within the epoch.
	r := newRig(t, NewFreeMarket(), true, 0)
	defer r.shutdown()
	intfVM := r.mgr.VM(r.intf.ServerVM.Dom.ID())
	capped := false
	lowFrac := 1.0
	r.mgr.Observe(func(d *IntervalData) {
		if f := intfVM.Account.Fraction(); f < lowFrac {
			lowFrac = f
		}
		if intfVM.Dom.Cap() > 0 {
			capped = true
		}
	})
	r.tb.Eng.RunUntil(sim.Second)
	if lowFrac > 0.10 {
		t.Errorf("interferer balance never fell below 10%% (min %.2f)", lowFrac)
	}
	if !capped {
		t.Error("FreeMarket never capped the exhausted interferer")
	}
	// The reporting VM stays uncapped.
	repVM := r.mgr.VMs()[0]
	if repVM.Dom.Cap() != 0 {
		t.Errorf("reporting VM capped at %d%%", repVM.Dom.Cap())
	}
}

func TestFreeMarketCapRestoredAtEpoch(t *testing.T) {
	r := newRig(t, NewFreeMarket(), true, 0)
	defer r.shutdown()
	intfVM := r.mgr.VM(r.intf.ServerVM.Dom.ID())
	var capAtEpochStart []int
	r.mgr.Observe(func(d *IntervalData) {
		if d.Index%1000 == 1 && d.Index > 1 { // first interval of an epoch
			capAtEpochStart = append(capAtEpochStart, intfVM.Dom.Cap())
		}
	})
	r.tb.Eng.RunUntil(2100 * sim.Millisecond)
	if len(capAtEpochStart) < 2 {
		t.Fatalf("observed %d epochs", len(capAtEpochStart))
	}
	for i, c := range capAtEpochStart {
		if c != 0 {
			t.Errorf("epoch %d began with cap %d%%, want uncapped", i, c)
		}
	}
}

func TestIOSharesRestoresLatency(t *testing.T) {
	// The headline result (Figure 7): with IOShares, the reporting VM's
	// latency returns near base despite the 2MB interferer.
	base := func() float64 {
		r := newRig(t, NewIOShares(), false, 0)
		defer r.shutdown()
		r.tb.Eng.RunUntil(400 * sim.Millisecond)
		return r.rep.Server.Stats().Total.Mean()
	}()

	interfered := func() float64 {
		tb := cluster.New(cluster.Config{})
		hostA, hostB := tb.AddHost(1), tb.AddHost(2)
		rep, _ := tb.NewApp("rep", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10})
		intf, _ := tb.NewApp("intf", hostA, hostB,
			benchex.ServerConfig{BufferSize: 2 << 20, PipelineResponses: true},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
		rep.Start()
		intf.Start()
		tb.Eng.RunUntil(400 * sim.Millisecond)
		m := rep.Server.Stats().Total.Mean()
		tb.Eng.Shutdown()
		return m
	}()

	r := newRig(t, NewIOShares(), true, base*1.1)
	defer r.shutdown()
	r.tb.Eng.RunUntil(400 * sim.Millisecond)
	managed := r.rep.Server.Stats().Total.Mean()

	if interfered < base*1.3 {
		t.Fatalf("interference too weak to test: base %.1f, interfered %.1f", base, interfered)
	}
	// ResEx claim: ≥30% reduction of the interference-induced latency.
	reduction := (interfered - managed) / (interfered - base)
	if reduction < 0.3 {
		t.Errorf("IOShares recovered only %.0f%% of interference (base %.1f, intf %.1f, managed %.1f)",
			reduction*100, base, interfered, managed)
	}
	// The interferer ended up capped and paying an elevated rate at some
	// point.
	intfVM := r.mgr.VM(r.intf.ServerVM.Dom.ID())
	if intfVM.Rate() <= 1 && intfVM.Dom.Cap() == 0 {
		t.Error("interferer neither repriced nor capped")
	}
}

func TestIOSharesNoPenaltyForTwins(t *testing.T) {
	// Figure 8: two identical 64KB apps must not penalize each other.
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	a, _ := tb.NewApp("a", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	b, _ := tb.NewApp("b", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	dom0 := hostA.Dom0VCPU()
	mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
	mgr := New(tb.Eng, hostA.HV, mon, dom0, NewIOShares(), Config{})
	vmA, _ := mgr.Manage(a.ServerVM.Dom, a.Server.SendCQ(), 230)
	vmB, _ := mgr.Manage(b.ServerVM.Dom, b.Server.SendCQ(), 230)
	agA := benchex.NewAgent(a.Server, a.ServerVM.Dom.ID(), mgr)
	agB := benchex.NewAgent(b.Server, b.ServerVM.Dom.ID(), mgr)
	a.Start()
	b.Start()
	agA.Start()
	agB.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	tb.Eng.RunUntil(500 * sim.Millisecond)
	if vmA.Rate() != 1 || vmB.Rate() != 1 {
		t.Errorf("twin VMs repriced: %.2f / %.2f", vmA.Rate(), vmB.Rate())
	}
	if vmA.Dom.Cap() != 0 || vmB.Dom.Cap() != 0 {
		t.Errorf("twin VMs capped: %d / %d", vmA.Dom.Cap(), vmB.Dom.Cap())
	}
	tb.Eng.Shutdown()
}

func TestIOSharesBacksOffQuietInterferer(t *testing.T) {
	// Figure 8's 2MB-no-interference case: a 2MB VM at 10 requests/s never
	// triggers repricing.
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	rep, _ := tb.NewApp("rep", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	quiet, _ := tb.NewApp("quiet", hostA, hostB,
		benchex.ServerConfig{BufferSize: 2 << 20, PipelineResponses: true},
		benchex.ClientConfig{BufferSize: 2 << 20, Interval: 100 * sim.Millisecond})
	dom0 := hostA.Dom0VCPU()
	mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
	mgr := New(tb.Eng, hostA.HV, mon, dom0, NewIOShares(), Config{})
	_, _ = mgr.Manage(rep.ServerVM.Dom, rep.Server.SendCQ(), 230)
	quietVM, _ := mgr.Manage(quiet.ServerVM.Dom, quiet.Server.SendCQ(), 0)
	ag := benchex.NewAgent(rep.Server, rep.ServerVM.Dom.ID(), mgr)
	rep.Start()
	quiet.Start()
	ag.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	tb.Eng.RunUntil(500 * sim.Millisecond)
	// The occasional 2MB burst may cause brief blips; the rate must stay
	// essentially unraised.
	if quietVM.Rate() > 3 {
		t.Errorf("quiet 2MB VM repriced to %.1f", quietVM.Rate())
	}
	lat := rep.Server.Stats().Total.Mean()
	if lat > 280 {
		t.Errorf("reporting latency %.1fµs with quiet neighbor, want near base", lat)
	}
	tb.Eng.Shutdown()
}

func TestCustomPolicyInterface(t *testing.T) {
	// The policy interface supports user strategies: a trivial flat-cap
	// policy.
	type flatCap struct{ cap float64 }
	_ = flatCap{}
	r := newRig(t, &testPolicy{}, false, 0)
	defer r.shutdown()
	r.tb.Eng.RunUntil(50 * sim.Millisecond)
	p := r.mgr.Policy().(*testPolicy)
	if p.intervals < 40 {
		t.Errorf("policy saw %d intervals in 50ms", p.intervals)
	}
	if p.epochs != 0 {
		t.Errorf("epochs = %d before 1s", p.epochs)
	}
}

type testPolicy struct {
	intervals int
	epochs    int
}

func (p *testPolicy) Name() string                         { return "test" }
func (p *testPolicy) Interval(m *Manager, d *IntervalData) { p.intervals++ }
func (p *testPolicy) EpochStart(m *Manager)                { p.epochs++ }

func TestApplyCapBounds(t *testing.T) {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, _ := tb.NewApp("a", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	mon := ibmon.New(hostA.HV, nil, ibmon.Config{})
	mgr := New(tb.Eng, hostA.HV, mon, nil, NewFreeMarket(), Config{})
	vm, _ := mgr.Manage(app.ServerVM.Dom, app.Server.SendCQ(), 0)

	mgr.ApplyCap(vm, 0.01) // floors at MinCap
	if vm.Dom.Cap() != 1 || vm.Cap() != 1 {
		t.Errorf("floored cap = %d/%.0f, want 1", vm.Dom.Cap(), vm.Cap())
	}
	mgr.ApplyCap(vm, 42.4)
	if vm.Dom.Cap() != 42 {
		t.Errorf("cap = %d, want 42", vm.Dom.Cap())
	}
	mgr.ApplyCap(vm, 150) // ≥100 = uncapped
	if vm.Dom.Cap() != 0 || vm.Cap() != 100 {
		t.Errorf("uncap: %d/%.0f", vm.Dom.Cap(), vm.Cap())
	}
}

func TestManageDiscoveredCQs(t *testing.T) {
	// The full paper loop without hand-wired CQ addresses: the dom0
	// backend registry reports every CQ the guest created through the
	// split driver; ResEx watches all of them.
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("a", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	dom := app.ServerVM.Dom
	cqs := hostA.Backend.CQsOf(dom.ID())
	if len(cqs) < 2 { // at least send + recv CQ
		t.Fatalf("backend registry reports %d CQs", len(cqs))
	}
	mon := ibmon.New(hostA.HV, nil, ibmon.Config{Period: 100 * sim.Microsecond})
	mgr := New(tb.Eng, hostA.HV, mon, nil, NewFreeMarket(), Config{})
	vm, err := mgr.ManageCQs(dom, cqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.ManageCQs(dom, nil, 0); err == nil {
		t.Error("empty CQ list accepted")
	}
	app.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	tb.Eng.RunUntil(100 * sim.Millisecond)
	// Usage flows through the discovered CQs: ~430 requests × 64 MTUs.
	if got := vm.Account.IOCharged(); got < 20000 {
		t.Errorf("IOCharged through discovered CQs = %d", got)
	}
	tb.Eng.Shutdown()
}

func TestWeightedShares(t *testing.T) {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	a, _ := tb.NewApp("a", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	b, _ := tb.NewApp("b", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	mon := ibmon.New(hostA.HV, nil, ibmon.Config{})
	mgr := New(tb.Eng, hostA.HV, mon, nil, NewFreeMarket(), Config{})
	vmA, _ := mgr.Manage(a.ServerVM.Dom, a.Server.SendCQ(), 0)
	vmB, _ := mgr.Manage(b.ServerVM.Dom, b.Server.SendCQ(), 0)
	if vmA.Share() != 1 {
		t.Errorf("default share = %d", vmA.Share())
	}
	// 3:1 priority split of the link supply.
	mgr.SetShare(vmA, 3)
	wantA := resos.CPUAllocation + resos.LinkMTUsPerEpoch*3/4
	wantB := resos.CPUAllocation + resos.LinkMTUsPerEpoch/4
	if vmA.Account.Allocation() != wantA || vmB.Account.Allocation() != wantB {
		t.Errorf("allocations %d/%d, want %d/%d",
			vmA.Account.Allocation(), vmB.Account.Allocation(), wantA, wantB)
	}
	// Degenerate share clamps.
	mgr.SetShare(vmB, 0)
	if vmB.Share() != 1 {
		t.Errorf("share clamp: %d", vmB.Share())
	}
}

func TestObserverSeesUsage(t *testing.T) {
	r := newRig(t, NewFreeMarket(), false, 0)
	defer r.shutdown()
	var totalMTUs int64
	intervals := 0
	r.mgr.Observe(func(d *IntervalData) {
		intervals++
		totalMTUs += d.TotalMTUs()
		if d.Now != r.tb.Eng.Now() || d.Index != int64(intervals) {
			t.Fatalf("bad interval data: %+v", d)
		}
	})
	r.tb.Eng.RunUntil(100 * sim.Millisecond)
	if intervals < 95 {
		t.Errorf("observer saw %d intervals in 100ms", intervals)
	}
	// ~64 MTUs per request at ~4-5 requests/ms... sanity: > 10000 total.
	if totalMTUs < 10000 {
		t.Errorf("observer saw %d MTUs", totalMTUs)
	}
}
