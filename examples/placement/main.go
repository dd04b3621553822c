// Placement: the fleet layer above per-host ResEx.
//
// Four worker hosts, each with its own IBMon monitor and ResEx/IOShares
// manager, plus a shared client host. Eight workloads — six latency-
// sensitive trading servers and two 2MB bulk movers — arrive one by one
// and are placed by the interference-aware filter → score → bind pipeline.
// A rebalancer consumes the per-host epoch summaries and live-migrates VMs
// when throttling alone cannot restore an SLA.
//
// Run it with:
//
//	go run ./examples/placement
package main

import (
	"fmt"
	"log"
	"os"

	"resex/internal/placement"
	"resex/internal/sim"
	"resex/internal/workload"
)

func main() {
	// 1. Build the fleet: 4 worker hosts behind one switch, a client host
	//    sized to hold every workload's client VM, one ResEx manager and
	//    IBMon monitor per worker, and the interference-aware pipeline as
	//    the placement strategy (the default).
	f := placement.NewFleet(placement.Config{
		Config: workload.Config{Hosts: 4, ClientPCPUs: 10},
		Seed:   1,
	})

	// 2. The workload mix, in arrival order: trading servers with a latency
	//    SLA interleaved with 2 MB bulk movers — the colocation the paper
	//    shows is fatal. The pipeline steers the bulks onto their own hosts
	//    as they arrive.
	trading := func(i int) placement.Workload {
		return placement.Workload{
			Name:             fmt.Sprintf("trading%d", i),
			BufferSize:       64 << 10,
			LatencySensitive: true,
			SLAUs:            240,
			Window:           1,
			Seed:             int64(i + 1),
		}
	}
	bulk := func(i int) placement.Workload {
		return placement.Workload{
			Name:              fmt.Sprintf("bulk%d", i),
			BufferSize:        2 << 20,
			Window:            16,
			Interval:          3700 * sim.Microsecond,
			Bursty:            true,
			ProcessTime:       2 * sim.Millisecond,
			PipelineResponses: true,
			Seed:              int64(100 + i),
		}
	}
	workloads := []placement.Workload{
		trading(0), trading(1), bulk(0), trading(2), trading(3), bulk(1),
	}

	// 3. Stagger the arrivals: one placement decision every 25 ms, like
	//    VMs being provisioned onto a running cluster.
	f.TB.Eng.Go("arrivals", func(p *sim.Proc) {
		for _, w := range workloads {
			if _, err := f.Place(w); err != nil {
				log.Fatal(err)
			}
			p.Sleep(25 * sim.Millisecond)
		}
	})

	// 4. The rebalancer: every ResEx epoch it checks the breach counters
	//    fed by each host's epoch summaries and live-migrates an
	//    interferer (or the victim) when a host is throttled out.
	rb := placement.NewRebalancer(f, placement.RebalanceConfig{Every: 1})
	rb.Start()

	// 5. Run two virtual seconds.
	f.TB.Eng.RunUntil(2 * sim.Second)

	// 6. Report: where everything landed and how it performed.
	fmt.Println("placements:")
	for _, pl := range f.Placements() {
		class := "bulk"
		if pl.Spec.LatencySensitive {
			class = "latency"
		}
		st := pl.App.Server.Stats()
		fmt.Printf("  %-9s %-8s node%d  migrations %d  served %6d  mean %7.1f µs\n",
			pl.Spec.Name, class, f.Workers[pl.HostIdx].Node,
			pl.Migrations, st.Served, st.Total.Mean())
	}
	fmt.Println("\nscheduler event log:")
	f.Log.WriteText(os.Stdout)
	f.TB.Eng.Shutdown()
}
