package splitdriver

import (
	"strings"
	"testing"

	"resex/internal/fabric"
	"resex/internal/hca"
	"resex/internal/ibmon"
	"resex/internal/sim"
	"resex/internal/xen"
)

// env is a single-host control-path test environment.
type env struct {
	eng   *sim.Engine
	hv    *xen.Hypervisor
	h     *hca.HCA
	be    *Backend
	guest *xen.Domain
	gvcpu *xen.VCPU
	fe    *Frontend
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.New()
	hv := xen.New(eng, xen.Config{})
	h := hca.New(eng, hca.Config{Node: 1})
	h.SetUplink(fabric.NewLink(eng, "up", 1e9, 0, fabric.RoundRobin, func(*fabric.Packet) {}))
	dom0 := hv.Dom0().AddVCPU(hv.PCPU(0))
	guest := hv.CreateDomain("guest", 64<<20, 0)
	gvcpu := guest.AddVCPU(hv.PCPU(1))
	be := NewBackend(eng, h, dom0)
	return &env{eng: eng, hv: hv, h: h, be: be, guest: guest, gvcpu: gvcpu,
		fe: be.Connect(guest, gvcpu)}
}

func TestControlPathCosts(t *testing.T) {
	e := newEnv(t)
	var elapsed sim.Time
	e.eng.Go("setup", func(p *sim.Proc) {
		start := p.Now()
		cq := e.fe.CreateCQ(p, 64)
		qp := e.fe.CreateQP(p, cq, cq, 16, 16)
		if _, err := e.fe.RegisterMR(p, 0x10000, 4096, hca.AccessLocalWrite); err != nil {
			t.Error(err)
		}
		if err := e.fe.ConnectQP(p, qp, 2, 99); err != nil {
			t.Error(err)
		}
		elapsed = p.Now() - start
	})
	e.eng.Run()
	// 4 ops × (10µs guest + 15µs dom0 + 20µs round trip) = 180µs.
	if elapsed != 180*sim.Microsecond {
		t.Errorf("4 control ops took %v, want 180µs", elapsed)
	}
	if got := e.guest.CPUTime(); got != 40*sim.Microsecond {
		t.Errorf("guest CPU = %v, want 40µs", got)
	}
	if got := e.hv.Dom0().CPUTime(); got != 60*sim.Microsecond {
		t.Errorf("dom0 CPU = %v, want 60µs", got)
	}
}

func TestSetupPhaseIsFree(t *testing.T) {
	e := newEnv(t)
	cq := e.fe.CreateCQ(nil, 64) // nil proc: wiring phase, no cost
	if cq == nil || e.guest.CPUTime() != 0 || e.hv.Dom0().CPUTime() != 0 {
		t.Error("nil-proc control op should be free")
	}
	if e.eng.Now() != 0 {
		t.Error("nil-proc control op advanced time")
	}
}

func TestRegistryVisibility(t *testing.T) {
	e := newEnv(t)
	cq1 := e.fe.CreateCQ(nil, 32)
	cq2 := e.fe.CreateCQ(nil, 64)
	qp := e.fe.CreateQP(nil, cq1, cq2, 8, 8)
	if _, err := e.fe.RegisterMR(nil, 0x1000, 8192, 0); err != nil {
		t.Fatal(err)
	}
	cqs := e.be.CQsOf(e.guest.ID())
	if len(cqs) != 2 || cqs[0] != cq1 || cqs[1] != cq2 {
		t.Errorf("CQsOf = %v", cqs)
	}
	qps := e.be.QPsOf(e.guest.ID())
	if len(qps) != 1 || qps[0] != qp {
		t.Errorf("QPsOf = %v", qps)
	}
	if e.be.CQsOf(xen.DomID(42)) != nil || e.be.QPsOf(xen.DomID(42)) != nil {
		t.Error("unknown domain should have no resources")
	}
	if d := e.be.Describe(e.guest.ID()); !strings.Contains(d, "2 CQs, 1 QPs, 1 MRs") {
		t.Errorf("Describe = %q", d)
	}
	if d := e.be.Describe(xen.DomID(42)); !strings.Contains(d, "not connected") {
		t.Errorf("Describe unknown = %q", d)
	}
	if e.be.DomainPD(e.guest.ID()) != e.fe.PD() {
		t.Error("DomainPD mismatch")
	}
}

func TestConnectIdempotentPD(t *testing.T) {
	e := newEnv(t)
	fe2 := e.be.Connect(e.guest, e.gvcpu)
	if fe2.PD() != e.fe.PD() {
		t.Error("reconnect created a new PD")
	}
}

func TestIBMonDiscoveryThroughBackend(t *testing.T) {
	// The full "assistance from the dom0 device driver" loop: the guest
	// creates its CQ through the split driver; IBMon discovers it from the
	// backend registry — no side channel.
	e := newEnv(t)
	cq := e.fe.CreateCQ(nil, 64)
	mon := ibmon.New(e.hv, nil, ibmon.Config{})
	for _, c := range e.be.CQsOf(e.guest.ID()) {
		if _, err := mon.WatchCQ(e.guest.ID(), c); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Target(e.guest.ID()) == nil {
		t.Fatal("no target after discovery")
	}
	_ = cq
}
