// Quickstart: the smallest complete ResEx setup.
//
// Two physical hosts joined by a simulated InfiniBand switch; a
// latency-sensitive 64KB trading application and a 2MB bulk application
// collocated on host A; IBMon watching both VMs' completion queues from
// dom0; and ResEx running the IOShares congestion-pricing policy.
//
// Run it with:
//
//	go run ./examples/quickstart
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

func main() {
	// 1. Build the testbed: two hosts connected by a 1 GB/s fabric.
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)

	// 2. A latency-sensitive trading app: server VM on host A, client VM
	//    on host B, 64 KB application buffers.
	trading, err := tb.NewApp("trading", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}

	// 3. A collocated bulk app with 2 MB buffers — the noisy neighbor.
	bulk, err := tb.NewApp("bulk", hostA, hostB,
		benchex.ServerConfig{BufferSize: 2 << 20, PipelineResponses: true},
		benchex.ClientConfig{BufferSize: 2 << 20, Window: 8, Interval: 3 * sim.Millisecond})
	if err != nil {
		log.Fatal(err)
	}

	// 4. ResEx in host A's dom0: IBMon introspection + IOShares pricing.
	dom0 := hostA.Dom0VCPU()
	mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
	mgr := resex.New(tb.Eng, hostA.HV, mon, dom0, resex.NewIOShares(), resex.Config{})
	if _, err := mgr.Manage(trading.ServerVM.Dom, trading.Server.SendCQ(), 250); err != nil {
		log.Fatal(err)
	}
	if _, err := mgr.Manage(bulk.ServerVM.Dom, bulk.Server.SendCQ(), 0); err != nil {
		log.Fatal(err)
	}
	// The trading VM's in-guest agent feeds latency reports to ResEx.
	agent := benchex.NewAgent(trading.Server, trading.ServerVM.Dom.ID(), mgr)

	// 5. Run one virtual second.
	trading.Start()
	bulk.Start()
	agent.Start()
	mon.Start(tb.Eng)
	mgr.Start()
	tb.Eng.RunUntil(sim.Second)

	// 6. Report.
	st := trading.Server.Stats()
	fmt.Printf("trading app: %d requests, service time %.1f µs (std %.1f)\n",
		st.Served, st.Total.Mean(), st.Total.StdDev())
	for _, vm := range mgr.VMs() {
		fmt.Printf("%-16s charging rate %5.2f  cap %3.0f%%  balance %d Resos\n",
			vm.Dom.Name(), vm.Rate(), vm.Cap(), vm.Account.Balance())
	}
	tb.Eng.Shutdown()
}
