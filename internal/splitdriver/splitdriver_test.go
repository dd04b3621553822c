package splitdriver

import (
	"testing"

	"resex/internal/fabric"
	"resex/internal/hca"
	"resex/internal/ibmon"
	"resex/internal/sim"
	"resex/internal/xen"
)

// env is a single-host control-path test environment.
type env struct {
	hv    *xen.Hypervisor
	be    *Backend
	guest *xen.Domain
	pd    *hca.PD
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := sim.New()
	hv := xen.New(eng, xen.Config{})
	h := hca.New(eng, hca.Config{Node: 1})
	h.SetUplink(fabric.NewLink(eng, "up", 1e9, 0, fabric.RoundRobin, func(*fabric.Packet) {}))
	hv.Dom0().AddVCPU(hv.PCPU(0))
	guest := hv.CreateDomain("guest", 64<<20, 0)
	guest.AddVCPU(hv.PCPU(1))
	be := NewBackend(h)
	return &env{hv: hv, be: be, guest: guest, pd: be.Connect(guest)}
}

func TestRegistryVisibility(t *testing.T) {
	e := newEnv(t)
	cq1 := e.pd.CreateCQ(32)
	cq2 := e.pd.CreateCQ(64)
	e.pd.CreateQP(cq1, cq2, 8, 8)
	cqs := e.be.CQsOf(e.guest.ID())
	if len(cqs) != 2 || cqs[0] != cq1 || cqs[1] != cq2 {
		t.Errorf("CQsOf = %v", cqs)
	}
	if e.be.CQsOf(xen.DomID(42)) != nil {
		t.Error("unknown domain should have no resources")
	}
}

func TestConnectIdempotentPD(t *testing.T) {
	e := newEnv(t)
	if e.be.Connect(e.guest) != e.pd {
		t.Error("reconnect created a new PD")
	}
}

func TestIBMonDiscoveryThroughBackend(t *testing.T) {
	// The full "assistance from the dom0 device driver" loop: the guest
	// creates its CQ in the PD the split driver handed it; IBMon discovers
	// it from the backend registry — no side channel.
	e := newEnv(t)
	e.pd.CreateCQ(64)
	mon := ibmon.New(e.hv, nil, ibmon.Config{})
	for _, c := range e.be.CQsOf(e.guest.ID()) {
		if _, err := mon.WatchCQ(e.guest.ID(), c); err != nil {
			t.Fatal(err)
		}
	}
	if mon.Target(e.guest.ID()) == nil {
		t.Fatal("no target after discovery")
	}
}
