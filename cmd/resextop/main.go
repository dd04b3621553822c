// Command resextop is a xentop-style monitor for the simulated platform:
// it runs the standard interference scenario and prints a per-VM table —
// CPU%, MTUs/s, charging rate, CPU cap, Reso balance — every reporting
// period of virtual time, straight from the ResEx manager's observer hook.
//
// Usage:
//
//	resextop                       # IOShares, 2s, 100ms refresh
//	resextop -policy freemarket -duration 3s -refresh 250ms
//	resextop -faults 4             # inject 4 fault storms/s; watch health
//	resextop -workload             # resexd's default session, in process
//	resextop -exchange             # fungible economy: rates + positions
//	resextop -attach /tmp/resexd.sock   # render a live resexd session
//
// Each refresh also shows the host's health (OK/degraded/blackout) and every
// VM's IBMon telemetry confidence, which matter once faults are injected.
// With -workload resextop runs resexd's default session in process (a
// closed-loop latency tenant against a bursty 2 MB bulk tenant, one quantum
// per refresh) and prints every quantum with the -attach columns: per-VM
// rate, cap, Resos, MTU rate, confidence and interference flag, plus
// per-tenant offered and completed rates, inflight, queue, p99 and SLO
// attainment. With -exchange the rig is a
// two-generation heterogeneous fleet under the Fungible policy, and each
// refresh prints every host's rate board (per-dimension prices, settlement
// epoch, trades) plus every holder's per-dimension book position. With
// -attach, resextop runs nothing itself: it subscribes to a running resexd
// daemon's telemetry stream and renders each sample with the same columns.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"resex/internal/daemon"
	"resex/internal/exchange"
	"resex/internal/experiments"
	"resex/internal/faults"
	"resex/internal/resex"
	"resex/internal/resos"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/workload"
)

func main() {
	var (
		policyName = flag.String("policy", "ioshares", "pricing policy: freemarket, ioshares or fungible")
		duration   = flag.Duration("duration", 2*time.Second, "virtual run time")
		refresh    = flag.Duration("refresh", 100*time.Millisecond, "virtual time between table prints")
		storms     = flag.Float64("faults", 0, "fault storms per second to inject (0 = none)")
		seed       = flag.Int64("seed", 0, "fault schedule seed; the session seed with -workload")
		useWL      = flag.Bool("workload", false, "run resexd's default session (lat + bulk tenants) in process instead of the benchex scenario")
		exchTop    = flag.Bool("exchange", false, "drive the fungible Reso economy on a heterogeneous two-host fleet and print per-host rates plus per-holder book positions")
		shardTop   = flag.Bool("shardsched", false, "drive the multi-shard placement scheduler on a synthetic fleet and print shard/conflict counters")
		shards     = flag.Int("shards", 4, "logical shard count for -shardsched")
		attach     = flag.String("attach", "", "render a running resexd daemon's telemetry stream from this unix socket")
		samples    = flag.Int("samples", 0, "with -attach: exit after this many samples (0 = stream forever)")
	)
	flag.Parse()

	if *attach != "" {
		runAttached(*attach, *samples)
		return
	}

	if *exchTop {
		if *storms > 0 || *useWL || *shardTop {
			fmt.Fprintln(os.Stderr, "resextop: -exchange does not combine with -faults, -workload or -shardsched")
			os.Exit(2)
		}
		runExchangeTop(*duration, *refresh, *seed)
		return
	}

	if *shardTop {
		if *storms > 0 || *useWL {
			fmt.Fprintln(os.Stderr, "resextop: -shardsched does not combine with -faults or -workload")
			os.Exit(2)
		}
		if *shards < 1 {
			fmt.Fprintf(os.Stderr, "resextop: -shards must be >= 1 (got %d)\n", *shards)
			os.Exit(2)
		}
		runShardTop(*shards, *seed, *duration, *refresh)
		return
	}

	if *useWL {
		if *storms > 0 {
			fmt.Fprintln(os.Stderr, "resextop: -faults is only supported in scenario mode")
			os.Exit(2)
		}
		runSession(*policyName, *duration, *refresh, *seed)
		return
	}

	var policy resex.Policy
	switch strings.ToLower(*policyName) {
	case "freemarket", "fm":
		policy = resex.NewFreeMarket()
	case "fungible", "fun":
		policy = resex.NewFungible()
	case "ioshares", "ios":
		policy = resex.NewIOShares()
	default:
		fmt.Fprintf(os.Stderr, "resextop: unknown policy %q\n", *policyName)
		os.Exit(2)
	}

	s, err := experiments.Build(experiments.ScenarioConfig{
		IntfBuffer: experiments.IntfBuffer,
		Policy:     policy,
		SLAUs:      experiments.BaseSLAUs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(1)
	}

	runFor := sim.Time(duration.Nanoseconds())
	if *storms > 0 {
		h := s.TB.Host(1)
		inj := faults.NewInjector(s.TB.Eng)
		inj.AttachHost(faults.HostPorts{
			Node: h.Node, Uplink: h.Uplink, Downlink: h.Downlink,
			HCA: h.HCA, Mon: s.Mon,
		})
		inj.Arm(faults.Generate(*seed, faults.GenConfig{
			Hosts:        []int{h.Node},
			Start:        200 * sim.Millisecond,
			Horizon:      runFor,
			StormsPerSec: *storms,
		}))
	}

	period := sim.Time(refresh.Nanoseconds())
	interval := s.Mgr.Config().Interval
	every := int64(period / interval)
	if every < 1 {
		every = 1
	}

	fmt.Printf("resextop — policy %s, refresh %v (virtual)\n", policy.Name(), *refresh)
	type accum struct {
		mtus int64
		cpu  float64
		n    int64
	}
	acc := map[string]*accum{}
	s.Mgr.Observe(func(d *resex.IntervalData) {
		for i := range d.VMs {
			t := &d.VMs[i]
			a := acc[t.VM.Dom.Name()]
			if a == nil {
				a = &accum{}
				acc[t.VM.Dom.Name()] = a
			}
			a.mtus += t.MTUs
			a.cpu += t.CPUPct
			a.n++
		}
		if d.Index%every != 0 {
			return
		}
		fmt.Printf("\n[t=%v]  host1 health: %s\n", d.Now, s.Mon.Health())
		fmt.Printf("%-18s %7s %10s %7s %6s %12s %6s %8s\n",
			"VM", "CPU%", "MTUs/s", "rate", "cap%", "resos", "conf", "intf?")
		for i := range d.VMs {
			t := &d.VMs[i]
			a := acc[t.VM.Dom.Name()]
			capStr := "-"
			if c := t.VM.Dom.Cap(); c > 0 {
				capStr = fmt.Sprintf("%d", c)
			}
			intf := ""
			if t.VM.Interfered() {
				intf = "victim"
			} else if t.VM.Rate() > 1 {
				intf = "taxed"
			}
			perSec := float64(a.mtus) / (float64(a.n) * interval.Seconds())
			fmt.Printf("%-18s %7.1f %10.0f %7.2f %6s %12d %6.2f %8s\n",
				t.VM.Dom.Name(), a.cpu/float64(a.n), perSec,
				t.VM.Rate(), capStr, t.VM.Account.Balance(), t.Confidence, intf)
			*a = accum{}
		}
	})

	s.Start()
	s.TB.Eng.RunUntil(runFor)
	s.Shutdown()
}

// runSession runs resexd's default session in process — tenants
// lat:latency and bulk:bulk under the named policy, one quantum per refresh
// — and renders every quantum with the -attach columns.
func runSession(policy string, duration, refresh time.Duration, seed int64) {
	s, err := daemon.New(daemon.Config{
		Seed:      seed,
		Policy:    policy,
		QuantumNs: refresh.Nanoseconds(),
		Tenants: []daemon.TenantConfig{
			{Name: "lat", Class: "latency"},
			{Name: "bulk", Class: "bulk"},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(2)
	}
	defer s.Shutdown()
	fmt.Printf("resextop — workload mode (in-process resexd session), policy %s, refresh %v (virtual)\n",
		s.PolicyName(), time.Duration(s.Quantum()))
	for end := sim.Time(duration.Nanoseconds()); s.Now() < end; {
		s.Step()
		render(s.Telemetry())
	}
}

// runExchangeTop drives the fungible Reso economy on a two-generation
// heterogeneous fleet — the abl-fungible scenario's shape — and prints each
// host's rate board and every holder's book position every refresh period.
func runExchangeTop(duration, refresh time.Duration, seed int64) {
	bws := []float64{1e9, 500e6}
	next := 0
	e := workload.New(workload.Config{
		Hosts:          2,
		ClientPCPUs:    16,
		LinkBandwidths: bws,
		Policy: func() resex.Policy {
			p := resex.NewFungible()
			// Pin each board's utilization reference to its own link's MTUs
			// per 250 ms epoch, as the abl-fungible experiment does.
			p.Exchange.Capacity[exchange.DimFabric] = resos.Amount(bws[next] * 0.25 / 1024)
			next++
			return p
		},
	})
	for i, bw := range bws {
		gen := bws[0] / bw
		if _, err := e.AddTenant(workload.TenantSpec{
			Name:             fmt.Sprintf("lat%d", i),
			Closed:           workload.ClosedLoop{Concurrency: 1},
			SLO:              workload.SLOSpec{P99Us: 1.5 * gen * experiments.BaseSLAUs},
			SLAUs:            gen * experiments.BaseSLAUs,
			LatencySensitive: true,
			Share:            3,
			Seed:             seed + int64(i) + 1,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "resextop:", err)
			os.Exit(1)
		}
	}
	for i, bw := range bws {
		// Offer ~90% of each host's link as 4× bursts.
		mean := 0.9 * bw / float64(experiments.IntfBuffer)
		calm := mean / 1.75
		if _, err := e.AddTenant(workload.TenantSpec{
			Name:       fmt.Sprintf("bulk%d", i),
			BufferSize: experiments.IntfBuffer,
			Arrivals: &workload.MMPP2{
				CalmRate: calm, BurstRate: 4 * calm,
				CalmDwell: 30 * sim.Millisecond, BurstDwell: 10 * sim.Millisecond,
			},
			Window:         16,
			ProcessTime:    2 * sim.Millisecond,
			PipelineServer: true,
			Seed:           seed + 100 + int64(i),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "resextop:", err)
			os.Exit(1)
		}
	}

	period := sim.Time(refresh.Nanoseconds())
	if period <= 0 {
		period = 100 * sim.Millisecond
	}
	fmt.Printf("resextop — exchange mode, policy Fungible, refresh %v (virtual)\n", refresh)
	e.TB.Eng.Every(period, func() {
		fmt.Printf("\n[t=%v]\n", e.TB.Eng.Now())
		for hi, m := range e.Mgrs {
			keeper, ok := m.Policy().(exchange.BookKeeper)
			if !ok {
				continue
			}
			bk := keeper.Book()
			board := bk.Board()
			fmt.Printf("host%d  epoch %-4d trades %-4d price cpu %.2f fabric %.2f membw %.2f  rate fabric/cpu %.2f\n",
				hi, bk.Epoch(), bk.TradeCount(),
				board.Price(exchange.DimCPU), board.Price(exchange.DimFabric),
				board.Price(exchange.DimMemBW),
				board.Rate(exchange.DimFabric, exchange.DimCPU))
			fmt.Printf("  %-18s %9s %9s %9s %9s %8s %8s %7s %6s\n",
				"holder", "cpu-ent", "cpu-spent", "fab-ent", "fab-spent", "fab-buy", "fab-sell", "rate", "cap%")
			for _, h := range bk.Holders() {
				var rate float64 = 1
				capStr := "-"
				for _, vm := range m.VMs() {
					if vm.Dom.Name() == h.Name() {
						rate = vm.Rate()
						if c := vm.Dom.Cap(); c > 0 {
							capStr = fmt.Sprintf("%d", c)
						}
						break
					}
				}
				fmt.Printf("  %-18s %9d %9d %9d %9d %8d %8d %7.2f %6s\n",
					h.Name(),
					h.Entitlement(exchange.DimCPU), h.Spent(exchange.DimCPU),
					h.Entitlement(exchange.DimFabric), h.Spent(exchange.DimFabric),
					h.Bought(exchange.DimFabric), h.Sold(exchange.DimFabric),
					rate, capStr)
			}
		}
	})

	e.Start()
	e.TB.Eng.RunUntil(sim.Time(duration.Nanoseconds()))
	e.Shutdown()
}

// runAttached subscribes to a resexd daemon's telemetry stream and renders
// each sample as a table: the daemon owns the simulation and its pacing;
// resextop here is a pure viewer.
func runAttached(socket string, samples int) {
	conn, err := daemon.Dial(socket)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resextop: cannot reach daemon at %s: %v\n", socket, err)
		os.Exit(1)
	}
	defer conn.Close()
	wire, _ := json.Marshal(daemon.Command{Cmd: "watch"})
	if _, err := conn.Write(append(wire, '\n')); err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(1)
	}
	r := bufio.NewReader(conn)
	if rep, err := daemon.ReadReply(r); err != nil || !rep.OK {
		fmt.Fprintf(os.Stderr, "resextop: watch refused: %v %s\n", err, rep.Error)
		os.Exit(1)
	}

	fmt.Printf("resextop — attached to %s\n", socket)
	seen := 0
	for samples == 0 || seen < samples {
		line, err := r.ReadBytes('\n')
		if err != nil {
			fmt.Fprintln(os.Stderr, "resextop: daemon stream closed:", err)
			os.Exit(1)
		}
		var tl daemon.TelemetryLine
		if err := json.Unmarshal(line, &tl); err != nil || tl.Telemetry.Epoch == 0 && tl.Telemetry.AtNs == 0 && tl.Telemetry.Policy == "" {
			continue // a command reply interleaved on this connection
		}
		render(tl.Telemetry)
		seen++
	}
}

// render prints one daemon telemetry sample with resextop's columns.
func render(t daemon.Telemetry) {
	state := ""
	if t.Paused {
		state = "  [paused]"
	}
	fmt.Printf("\n[t=%v  epoch %d  policy %s]%s\n",
		time.Duration(t.AtNs), t.Epoch, t.Policy, state)
	fmt.Printf("%-18s %7s %6s %12s %7s %6s %8s\n",
		"VM", "rate", "cap%", "resos", "MTU/s", "conf", "intf?")
	for _, vm := range t.VMs {
		capStr := "-"
		if vm.CapPct > 0 {
			capStr = fmt.Sprintf("%d", vm.CapPct)
		}
		intf := ""
		if vm.Interfered {
			intf = "victim"
		} else if vm.Rate > 1 {
			intf = "taxed"
		}
		fmt.Printf("%-18s %7.2f %6s %12d %7.0f %6.2f %8s\n",
			vm.Name, vm.Rate, capStr, vm.Resos, vm.MTURate, vm.Confidence, intf)
	}
	fmt.Printf("%-10s %10s %11s %8s %7s %9s %7s\n",
		"tenant", "offered/s", "completed/s", "inflight", "queued", "p99(µs)", "SLO%")
	for _, tn := range t.Tenants {
		name := tn.Name
		if !tn.Running {
			name += "*" // stopped
		}
		slo := "-"
		if tn.AttainPct > 0 {
			slo = fmt.Sprintf("%.1f", tn.AttainPct)
		}
		fmt.Printf("%-10s %10.0f %11.0f %8d %7d %9.0f %7s\n",
			name, tn.OfferedPerSec, tn.CompletedPerSec,
			tn.Inflight, tn.Queued, tn.P99, slo)
	}
}

// runShardTop drives the schedshard scheduler over a synthetic 128-host
// fleet: every refresh period one arrival wave is enqueued and one
// propose→merge→commit round runs, and the round's conflict accounting is
// printed as it happens. The final table breaks the lifetime counters down
// per logical shard.
func runShardTop(shards int, seed int64, duration, refresh time.Duration) {
	const hosts = 128
	vms := 25 * hosts

	eng := sim.New()
	store := schedshard.NewStore()
	fleet := make([]*schedshard.HostInfo, hosts)
	for i := range fleet {
		fleet[i] = &schedshard.HostInfo{
			Node: i + 1, FreePCPUs: 31, TotalPCPUs: 31,
			LinkBytesPerSec: 1e9, ResoHeadroom: 1,
		}
	}
	store.Publish(fleet)
	sched := schedshard.NewScheduler(store, schedshard.Config{
		Shards: shards, Workers: shards, Seed: seed, AvoidConflicts: true,
	})

	runFor := sim.Time(duration.Nanoseconds())
	period := sim.Time(refresh.Nanoseconds())
	if period <= 0 {
		period = 100 * sim.Millisecond
	}
	ticks := int(runFor / period)
	if ticks < 1 {
		ticks = 1
	}
	perWave := (vms + ticks - 1) / ticks
	rng := sim.NewRand(seed)
	next := 0

	fmt.Printf("schedshard: %d hosts, %d VMs, %d logical shards (conflict avoidance on)\n\n", hosts, vms, shards)
	fmt.Printf("%10s %6s %9s %9s %10s %8s %8s %9s\n",
		"time", "round", "proposed", "committed", "conflicted", "starved", "pending", "store-ver")
	eng.Every(period, func() {
		for i := 0; i < perWave && next < vms; i++ {
			var spec schedshard.Spec
			var vm schedshard.VMInfo
			if rng.Intn(4) == 0 {
				spec = schedshard.Spec{Name: fmt.Sprintf("bulk%d", next), BufferSize: 2 << 20}
				vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 60e6, BufferSize: 2 << 20}
			} else {
				spec = schedshard.Spec{Name: fmt.Sprintf("ls%d", next), LatencySensitive: true, BufferSize: 64 << 10}
				vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 2e6, BufferSize: 64 << 10}
			}
			sched.Enqueue(spec, vm)
			next++
		}
		rs := sched.Round()
		fmt.Printf("%10v %6d %9d %9d %10d %8d %8d %9d\n",
			eng.Now(), rs.Round, rs.Proposed, rs.Committed, rs.Conflicted,
			rs.Starved, rs.Pending, store.Version())
	})
	eng.RunUntil(runFor)
	eng.Shutdown()

	fmt.Printf("\nper-shard lifetime counters:\n%6s %9s %9s %10s %8s\n",
		"shard", "proposed", "committed", "conflicted", "starved")
	for _, sc := range sched.Shards() {
		fmt.Printf("%6d %9d %9d %10d %8d\n",
			sc.Shard, sc.Proposed, sc.Committed, sc.Conflicted, sc.Starved)
	}
	fmt.Printf("\ntotal: %d bound, %d failed, %d conflicts, %d retries, bind-fnv %016x\n",
		len(sched.Bound()), len(sched.Failed()), sched.Conflicts(), sched.Retries(), sched.BindFNV())
}
