package resex

import (
	"testing"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/sim"
	"resex/internal/xen"
)

// TestEpochSummaryLedger checks the export contract the fleet scheduler
// depends on: every epoch summarizes every managed VM in manage order, and
// the manager-computed IntfPercent flags the interfered victim even though
// it is not the pricing policy's own signal, while Cap shows the
// interferer throttled.
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

	var sums []EpochSummary
	mgr.ObserveEpoch(func(es EpochSummary) {
		sums = append(sums, es)
		// The observer runs synchronously at the boundary, after
		// replenishment and EpochStart, with one entry per managed VM.
		vms := mgr.VMs()
		if len(es.VMs) != len(vms) {
			t.Fatalf("epoch %d: %d summaries for %d VMs", len(sums), len(es.VMs), len(vms))
		}
		for i, vm := range vms {
			if es.VMs[i].Dom != vm.Dom.ID() {
				t.Errorf("epoch %d: entry %d is dom %d, want %s", len(sums), i, es.VMs[i].Dom, vm.Dom.Name())
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
		// Capping is fast, so the epoch-mean elevation is modest — but it
		// must be visible.
		if s := es.VM(rep.ServerVM.Dom.ID()); s != nil && s.IntfPercent > 0 {
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
