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

// TestEpochSummaryLedger checks the export contract the fleet scheduler
// depends on: per-epoch IOCharged/CPUCharged deltas reconcile exactly with
// the Reso ledger at every boundary, Utilization is the charged fraction of
// the allocation, and the manager-computed IntfPercent flags the interfered
// victim even though it is not the pricing policy's own signal.
func TestEpochSummaryLedger(t *testing.T) {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	rep, err := tb.NewApp("rep", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	intf, err := tb.NewApp("intf", hostA, hostB,
		benchex.ServerConfig{BufferSize: 2 << 20, PipelineResponses: true},
		benchex.ClientConfig{BufferSize: 2 << 20, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	dom0 := hostA.Dom0VCPU()
	mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
	// 200 ms epochs so a 1 s run crosses several boundaries.
	mgr := New(tb.Eng, hostA.HV, mon, dom0, NewIOShares(), Config{IntervalsPerEpoch: 200})
	if _, err := mgr.Manage(rep.ServerVM.Dom, rep.Server.SendCQ(), 240); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Manage(intf.ServerVM.Dom, intf.Server.SendCQ(), 0); err != nil {
		t.Fatal(err)
	}
	agent := benchex.NewAgent(rep.Server, rep.ServerVM.Dom.ID(), mgr)

	type cum struct{ io, cpu resos.Amount }
	running := map[xen.DomID]*cum{}
	var sums []EpochSummary
	mgr.ObserveEpoch(func(es EpochSummary) {
		sums = append(sums, es)
		for _, s := range es.VMs {
			c := running[s.Dom]
			if c == nil {
				c = &cum{}
				running[s.Dom] = c
			}
			c.io += s.IOCharged
			c.cpu += s.CPUCharged
		}
		// The observer runs synchronously at the boundary, before
		// replenishment: summed per-epoch deltas must equal the cumulative
		// ledger right now.
		for _, vm := range mgr.VMs() {
			c := running[vm.Dom.ID()]
			if c == nil {
				t.Fatalf("epoch %d: no summary for %s", es.Epoch, vm.Dom.Name())
			}
			if c.io != vm.Account.IOCharged() || c.cpu != vm.Account.CPUCharged() {
				t.Errorf("epoch %d %s: summed deltas io=%d cpu=%d, ledger io=%d cpu=%d",
					es.Epoch, vm.Dom.Name(), c.io, c.cpu,
					vm.Account.IOCharged(), vm.Account.CPUCharged())
			}
		}
	})

	rep.Start()
	intf.Start()
	agent.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	tb.Eng.RunUntil(sim.Second)
	defer tb.Eng.Shutdown()

	if len(sums) < 3 {
		t.Fatalf("only %d epoch summaries", len(sums))
	}
	repIntferred, intfCapped := false, false
	for _, es := range sums {
		if es.VM(xen.DomID(9999)) != nil {
			t.Error("lookup of unknown domain succeeded")
		}
		for _, s := range es.VMs {
			if s.Allocation <= 0 {
				continue
			}
			want := float64(s.IOCharged+s.CPUCharged) / float64(s.Allocation)
			if diff := s.Utilization - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("epoch %d %s: utilization %.6f, want %.6f",
					es.Epoch, s.Name, s.Utilization, want)
			}
		}
		// Capping is fast, so the epoch-mean elevation is modest — but it
		// must be visible, and the policy must have blamed an interferer.
		if s := es.VM(rep.ServerVM.Dom.ID()); s != nil && s.IntfPercent > 0 && s.Interfered {
			repIntferred = true
		}
		if s := es.VM(intf.ServerVM.Dom.ID()); s != nil && s.Cap < 100 {
			intfCapped = true
		}
	}
	if !repIntferred {
		t.Error("no epoch reported the 64KB victim's latency elevation")
	}
	if !intfCapped {
		t.Error("no epoch shows the 2MB interferer capped")
	}
}
