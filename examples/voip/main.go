// VoIP: the paper's second motivating workload class — soft-real-time
// media delivery ("server systems performing phone call switching or
// multimedia delivery, which require soft deadlines to be met").
//
// A media VM streams 64 KB frames every 2 ms with a 100 µs delivery
// deadline. This example measures the stream's deadline-miss rate and
// jitter alone, next to a 2 MB bulk workload, and with ResEx/IOShares
// protecting the host.
//
// Run it with:
//
//	go run ./examples/voip
package main

import (
	"fmt"
	"log"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/softrt"
)

func run(withBulk, managed bool) softrt.Stats {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	stream, err := softrt.New(tb, hostA, hostB, softrt.Config{
		Name:      "call",
		FrameSize: 64 << 10,
		Period:    2 * sim.Millisecond,
		Deadline:  100 * sim.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	var mgr *resex.Manager
	if managed {
		dom0 := hostA.Dom0VCPU()
		mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
		mgr = resex.New(tb.Eng, hostA.HV, mon, dom0, resex.NewIOShares(), resex.Config{})
		// A collocated latency-sensitive app supplies the victim feedback,
		// as in the paper's deployment.
		trading, err := tb.NewApp("trading", hostA, hostB,
			benchex.ServerConfig{BufferSize: 64 << 10},
			benchex.ClientConfig{BufferSize: 64 << 10})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := mgr.Manage(trading.ServerVM.Dom, trading.Server.SendCQ(), 240); err != nil {
			log.Fatal(err)
		}
		benchex.NewAgent(trading.Server, trading.ServerVM.Dom.ID(), mgr).Start()
		trading.Start()
		mon.Start(tb.Eng)
		mgr.Start()
	}
	if withBulk {
		bulk, err := tb.NewApp("bulk", hostA, hostB,
			benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true, RecvSlots: 18},
			benchex.ClientConfig{BufferSize: 2 << 20, Window: 16, Interval: 3700 * sim.Microsecond, BurstyArrivals: true, Seed: 999})
		if err != nil {
			log.Fatal(err)
		}
		if mgr != nil {
			if _, err := mgr.Manage(bulk.ServerVM.Dom, bulk.Server.SendCQ(), 0); err != nil {
				log.Fatal(err)
			}
		}
		bulk.Start()
	}

	stream.Start()
	tb.Eng.RunUntil(sim.Second)
	s := stream.Stats()
	tb.Eng.Shutdown()
	return s
}

func main() {
	fmt.Println("Media stream (64KB frames @ 2ms, 100µs delivery deadline), 1s each:")
	fmt.Printf("\n%-26s %10s %12s %12s %10s\n", "deployment", "frames", "miss rate", "latency(µs)", "jitter")
	for _, row := range []struct {
		name          string
		bulk, managed bool
	}{
		{"dedicated fabric", false, false},
		{"with 2MB bulk neighbor", true, false},
		{"with bulk + IOShares", true, true},
	} {
		s := run(row.bulk, row.managed)
		fmt.Printf("%-26s %10d %11.1f%% %12.1f %10.1f\n",
			row.name, s.Received, s.MissRate()*100, s.Latency.Mean(), s.Jitter.Mean())
	}
	fmt.Println("\nDeadline misses — not averages — are what breaks media delivery;")
	fmt.Println("IOShares converts a broken stream back into a deliverable one.")
}
