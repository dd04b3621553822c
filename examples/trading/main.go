// Trading: the paper's motivating scenario end to end.
//
// An electronic exchange (think ICE/CME) hosts its matching gateway in a VM
// with strict latency expectations. The operator wants to consolidate a
// market-analytics batch job onto the same machine. This example measures
// the gateway's latency distribution in four deployments:
//
//  1. alone on the host (the conservative, underutilized status quo),
//  2. consolidated with the analytics job, no management,
//  3. consolidated under ResEx/FreeMarket,
//  4. consolidated under ResEx/IOShares,
//
// and prints the p50/p99/max comparison — the numbers an exchange operator
// would look at before agreeing to consolidation.
//
// Run it with:
//
//	go run ./examples/trading
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

// deployment runs one configuration for a virtual second and returns the
// gateway's latency sample.
func deployment(consolidated bool, policy resex.Policy) benchex.ClientStats {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)

	gateway, err := tb.NewApp("gateway", hostA, hostB,
		benchex.ServerConfig{BufferSize: 64 << 10},
		benchex.ClientConfig{BufferSize: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}

	var mgr *resex.Manager
	if policy != nil {
		dom0 := hostA.Dom0VCPU()
		mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
		mgr = resex.New(tb.Eng, hostA.HV, mon, dom0, policy, resex.Config{})
		if _, err := mgr.Manage(gateway.ServerVM.Dom, gateway.Server.SendCQ(), 250); err != nil {
			log.Fatal(err)
		}
		benchex.NewAgent(gateway.Server, gateway.ServerVM.Dom.ID(), mgr).Start()
		mon.Start(tb.Eng)
		mgr.Start()
	}

	if consolidated {
		analytics, err := tb.NewApp("analytics", hostA, hostB,
			benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 16, Interval: 2500 * sim.Microsecond})
		if err != nil {
			log.Fatal(err)
		}
		if mgr != nil {
			if _, err := mgr.Manage(analytics.ServerVM.Dom, analytics.Server.SendCQ(), 0); err != nil {
				log.Fatal(err)
			}
		}
		analytics.Start()
	}

	gateway.Start()
	tb.Eng.RunUntil(sim.Second)
	stats := gateway.Client.Stats()
	tb.Eng.Shutdown()
	return stats
}

func main() {
	fmt.Println("Exchange gateway latency under four deployments (1s virtual time each):")
	fmt.Printf("\n%-28s %10s %10s %10s %10s\n", "deployment", "mean(µs)", "p50", "p99", "max")
	rows := []struct {
		name         string
		consolidated bool
		policy       resex.Policy
	}{
		{"dedicated host", false, nil},
		{"consolidated, unmanaged", true, nil},
		{"consolidated + FreeMarket", true, resex.NewFreeMarket()},
		{"consolidated + IOShares", true, resex.NewIOShares()},
	}
	for _, row := range rows {
		cs := deployment(row.consolidated, row.policy)
		fmt.Printf("%-28s %10.1f %10.1f %10.1f %10.1f\n", row.name,
			cs.Latency.Mean(), cs.Sample.Quantile(0.5), cs.Sample.Quantile(0.99), cs.Latency.Max())
	}
	fmt.Println("\nIOShares keeps the consolidated gateway near its dedicated-host latency,")
	fmt.Println("which is what makes consolidation acceptable for latency-sensitive tenants.")
}
