// Policies: writing a custom pricing policy against the ResEx interface.
//
// The paper frames ResEx as a framework: "its mechanisms and abstractions
// allow multiple 'pricing policies' to be deployed". This example
// implements one from scratch — a progressive-tax policy that charges
// super-linearly for I/O beyond a VM's fair share of the link — and runs it
// against FreeMarket and IOShares on the standard 64KB-vs-2MB workload.
//
// Run it with:
//
//	go run ./examples/policies
package main

import (
	"fmt"
	"log"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/sim"
)

// ProgressiveTax charges 1 Reso/MTU up to the VM's fair share of the link
// per interval, and rate^2 beyond it; a VM that has overdrawn its account
// is capped in proportion to the overdraft. It needs no latency feedback —
// purely usage-driven, unlike IOShares — which makes it a middle ground
// between FreeMarket's blindness and IOShares' feedback loop.
type ProgressiveTax struct {
	// FairShareMTUs is the per-interval MTU budget charged at base rate.
	FairShareMTUs int64
	// Surcharge multiplies the price of above-share MTUs.
	Surcharge float64
}

// Name implements resex.Policy.
func (p *ProgressiveTax) Name() string { return "ProgressiveTax" }

// Interval implements resex.Policy.
func (p *ProgressiveTax) Interval(m *resex.Manager, d *resex.IntervalData) {
	for i := range d.VMs {
		t := &d.VMs[i]
		within := t.MTUs
		var beyond int64
		if within > p.FairShareMTUs {
			beyond = within - p.FairShareMTUs
			within = p.FairShareMTUs
		}
		t.VM.Account.ChargeIO(within, 1)
		t.VM.Account.ChargeIO(beyond, p.Surcharge)
		t.VM.Account.ChargeCPU(t.CPUPct, 1)
		// Cap in proportion to how deep in the red the account is.
		switch f := t.VM.Account.Fraction(); {
		case f < 0:
			m.ApplyCap(t.VM, 2)
		case f < 0.10:
			m.ApplyCap(t.VM, 100*f)
		default:
			m.ApplyCap(t.VM, 100)
		}
	}
}

// EpochStart implements resex.Policy.
func (p *ProgressiveTax) EpochStart(m *resex.Manager) {
	for _, vm := range m.VMs() {
		m.ApplyCap(vm, 100)
	}
}

// run executes the standard interference workload under one policy.
func run(policy resex.Policy) (repLatency float64, intfThroughputMBs float64) {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	rep, err := tb.NewApp("rep", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	intf, err := tb.NewApp("intf", hostA, hostB,
		benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true},
		benchex.ClientConfig{BufferSize: 2 << 20, Window: 16, Interval: 2500 * sim.Microsecond})
	if err != nil {
		log.Fatal(err)
	}
	dom0 := hostA.Dom0VCPU()
	mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
	mgr := resex.New(tb.Eng, hostA.HV, mon, dom0, policy, resex.Config{})
	if _, err := mgr.Manage(rep.ServerVM.Dom, rep.Server.SendCQ(), 250); err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.Manage(intf.ServerVM.Dom, intf.Server.SendCQ(), 0); err != nil {
		log.Fatal(err)
	}
	benchex.NewAgent(rep.Server, rep.ServerVM.Dom.ID(), mgr).Start()
	rep.Start()
	intf.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	const dur = sim.Second
	tb.Eng.RunUntil(dur)
	lat := rep.Server.Stats().Total.Mean()
	bytes := float64(intf.Server.Stats().Served) * float64(2<<20)
	tb.Eng.Shutdown()
	return lat, bytes / dur.Seconds() / 1e6
}

func main() {
	// Fair share: half the link, per 1 ms interval = 524 MTUs.
	policies := []resex.Policy{
		resex.NewFreeMarket(),
		resex.NewIOShares(),
		&ProgressiveTax{FairShareMTUs: 524, Surcharge: 4},
	}
	fmt.Println("Custom policy comparison: 64KB latency app vs 2MB bulk app, 1s each")
	fmt.Printf("\n%-16s %22s %24s\n", "policy", "64KB latency (µs)", "2MB throughput (MB/s)")
	for _, p := range policies {
		lat, thr := run(p)
		fmt.Printf("%-16s %22.1f %24.1f\n", p.Name(), lat, thr)
	}
	fmt.Println("\nProgressiveTax throttles heavy senders without latency feedback;")
	fmt.Println("IOShares reacts only when a victim actually reports SLA violations,")
	fmt.Println("so it preserves more bulk throughput for the same latency recovery.")
}
