// Command resextop is a xentop-style monitor for the simulated platform. It
// renders one of three sources, every refresh period of virtual time:
//
//	resextop                            # resexd's default session, in process
//	resextop -policy freemarket -duration 3s -refresh 250ms
//	resextop -fig fig7                  # any registered experiment
//	resextop -attach /tmp/resexd.sock   # a running resexd session
//
// With no -fig or -attach resextop runs resexd's default session in process
// (daemon.DefaultTenants, lat:latency and bulk:bulk: a closed-loop latency
// tenant against a bursty 2 MB bulk tenant, one quantum per refresh) and
// prints every quantum with the -attach columns: per-VM rate, cap, Resos,
// MTU rate, confidence and interference flag, plus per-tenant offered and
// completed rates, inflight, queue, p99 and SLO attainment. With -attach it
// runs nothing itself: it subscribes to a running resexd daemon's telemetry
// stream and renders each sample with the same columns.
//
// With -fig it runs the registered experiment's driver under a watch plan
// (snapshot.NewWatch) and renders every engine the driver builds from that
// engine's snapshot.Source, skipping the sections the rig does not list:
// per-VM CPU%, MTUs/s, rate, cap, Resos, confidence and victim/taxed flag
// (Managers); per host with an IBMon monitor, its telemetry health and the
// bytes IBMon inferred its VMs sent against the bytes its HCA sent, with
// the error in percent (Monitors, e.g. -fig abl-faults, or the managers'
// monitors, e.g. -fig fig7); per-book epoch, trades, prices and holder
// positions (the managers' exchange books, e.g. -fig abl-fungible); and
// scheduler rounds, binds, conflicts and per-shard counter deltas (Sched,
// e.g. -fig abl-shardsched). The watch is seq-neutral, so the driver's
// result, printed at the end, is byte-identical to resexsim's. Drivers that
// arm their own snapshot plans (abl-restart's capture and restore runs) are
// watched only on the engines they leave unplanned.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"resex/internal/daemon"
	"resex/internal/exchange"
	"resex/internal/experiments"
	"resex/internal/resex"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/snapshot"
)

func main() {
	var (
		fig        = flag.String("fig", "", "run and render this registered experiment (resexsim -list names them)")
		policyName = flag.String("policy", "ioshares", "default session only: pricing policy freemarket, ioshares or fungible")
		duration   = flag.Duration("duration", 2*time.Second, "virtual run time (the experiment's measured duration with -fig)")
		refresh    = flag.Duration("refresh", 100*time.Millisecond, "virtual time between table prints")
		seed       = flag.Int64("seed", 0, "session or experiment seed")
		attach     = flag.String("attach", "", "render a running resexd daemon's telemetry stream from this unix socket")
		samples    = flag.Int("samples", 0, "with -attach: exit after this many samples (0 = stream forever)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case *fig != "" && *attach != "":
		usageErr("-fig and -attach are exclusive")
	case set["policy"] && (*fig != "" || *attach != ""):
		usageErr("-policy applies only to the default session")
	case set["samples"] && *attach == "":
		usageErr("-samples applies only to -attach")
	case *samples < 0:
		usageErr("-samples must not be negative")
	case *refresh <= 0:
		usageErr("-refresh must be positive")
	}

	switch {
	case *attach != "":
		runAttached(*attach, *samples)
	case *fig != "":
		runFig(*fig, *duration, *refresh, *seed)
	default:
		runSession(*policyName, *duration, *refresh, *seed)
	}
}

func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "resextop:", msg)
	os.Exit(2)
}

// runSession runs resexd's default session in process — tenants
// lat:latency and bulk:bulk (daemon.DefaultTenants) under the named policy,
// one quantum per refresh — and renders every quantum with the -attach
// columns.
func runSession(policy string, duration, refresh time.Duration, seed int64) {
	s, err := daemon.New(daemon.Config{
		Seed:      seed,
		Policy:    policy,
		QuantumNs: refresh.Nanoseconds(),
		Tenants:   daemon.DefaultTenants(),
	})
	if err != nil {
		usageErr(err.Error())
	}
	defer s.Shutdown()
	fmt.Printf("resextop — resexd default session (in process), policy %s, refresh %v (virtual)\n",
		s.PolicyName(), time.Duration(s.Quantum()))
	for end := sim.Time(duration.Nanoseconds()); s.Now() < end; {
		s.Step()
		render(os.Stdout, s.Telemetry())
	}
}

// runFig runs one registered experiment serially under a watch plan,
// rendering every engine's source each refresh, then prints the result.
func runFig(id string, duration, refresh time.Duration, seed int64) {
	e, err := experiments.Lookup(id)
	if err != nil {
		usageErr(err.Error())
	}
	w := watcher{}
	fmt.Printf("resextop — %s (%s), refresh %v (virtual)\n", e.ID, e.Title, refresh)
	res, err := e.Run(experiments.Options{
		Duration: sim.Time(duration.Nanoseconds()),
		Seed:     seed,
		// One worker everywhere keeps the watch callbacks serial.
		Parallel: 1, ShardWorkers: 1, SimShards: 1,
		Checkpoint: snapshot.NewWatch(sim.Time(refresh.Nanoseconds()), w.watch),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "resextop: %s: %v\n", id, err)
		os.Exit(1)
	}
	fmt.Println()
	if err := res.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(1)
	}
}

// watcher renders watched engines, keeping each one's previous readings.
// Engines are numbered in the order they first fire.
type watcher map[snapshot.Key]*seen

// seen is one engine's readings at its previous refresh, the baseline for
// the per-period CPU% and shard-counter deltas.
type seen struct {
	n      int
	at     sim.Time
	cpu    map[*resex.ManagedVM]sim.Time
	shards []schedshard.ShardCounters
}

// watch renders one engine's source. It only reads, so the watched run
// stays event-identical to an unwatched one.
func (w watcher) watch(k snapshot.Key, eng *sim.Engine, src *snapshot.Source) {
	last := w[k]
	if last == nil {
		last = &seen{n: len(w), cpu: map[*resex.ManagedVM]sim.Time{}}
		w[k] = last
	}
	now := eng.Now()
	fmt.Printf("\n[t=%v  engine %d]\n", now, last.n)
	renderHosts(src)
	renderVMs(src.Managers, last, now)
	for i, bk := range resex.Books(src.Managers) {
		renderBook(i, bk)
	}
	if src.Sched != nil {
		last.shards = renderSched(src.Sched, last.shards)
	}
	last.at = now
}

// renderHosts prints one line per IBMon-monitored host: the monitor's
// health, the bytes IBMon inferred the host's watched VMs sent, the bytes
// the host's HCA actually sent, and IBMon's error against the device. Rigs
// that list no monitors are read through their managers' monitors. Prints
// nothing when the rig runs no monitor.
func renderHosts(src *snapshot.Source) {
	if src.TB == nil {
		return
	}
	mons := src.Monitors
	if len(mons) == 0 {
		for _, m := range src.Managers {
			if m != nil {
				mons = append(mons, m.Monitor())
			}
		}
	}
	header := false
	for _, mon := range mons {
		if mon == nil {
			continue
		}
		for hi, h := range src.TB.Hosts {
			if h.HV != mon.Hypervisor() {
				continue
			}
			if !header {
				fmt.Printf("%-4s %-9s %13s %13s %8s\n", "host", "health", "ibmon-sent", "device-sent", "err%")
				header = true
			}
			var inferred int64
			for _, t := range mon.Targets() {
				inferred += t.Usage().BytesSent
			}
			device, errPct := h.HCA.BytesSent(), "-"
			if device > 0 {
				errPct = fmt.Sprintf("%.2f", 100*float64(inferred-device)/float64(device))
			}
			fmt.Printf("%-4d %-9s %13d %13d %8s\n", hi, mon.Health(), inferred, device, errPct)
		}
	}
}

// renderVMs prints every managed VM: CPU% since the last refresh, smoothed
// MTUs/s, charging rate, cap, Reso balance, IBMon confidence and the
// interference flag. Prints nothing when no manager has a VM.
func renderVMs(mgrs []*resex.Manager, last *seen, now sim.Time) {
	header := false
	for hi, m := range mgrs {
		if m == nil {
			continue
		}
		interval := resex.Interval.Seconds()
		for _, vm := range m.VMs() {
			if !header {
				fmt.Printf("%-4s %-22s %7s %10s %7s %6s %12s %6s %8s\n",
					"host", "VM", "CPU%", "MTUs/s", "rate", "cap%", "resos", "conf", "intf?")
				header = true
			}
			cpu := vm.Dom.CPUTime()
			pct := 100 * float64(cpu-last.cpu[vm]) / float64(now-last.at)
			last.cpu[vm] = cpu
			fmt.Printf("%-4d %-22s %7.1f %10.0f %7.2f %6s %12d %6.2f %8s\n",
				hi, vm.Dom.Name(), pct, vm.MTURate()/interval, vm.Rate(),
				capStr(vm.Dom.Cap()), vm.Account.Balance(), vm.Confidence(),
				intfFlag(vm.Interfered(), vm.Rate()))
		}
	}
}

// renderBook prints one exchange book's rate board and every holder's
// per-dimension position.
func renderBook(i int, bk *exchange.Book) {
	board := bk.Board()
	fmt.Printf("book%d  epoch %-4d trades %-4d price cpu %.2f fabric %.2f membw %.2f  rate fabric/cpu %.2f\n",
		i, bk.Epoch(), bk.TradeCount(),
		board.Price(exchange.DimCPU), board.Price(exchange.DimFabric),
		board.Price(exchange.DimMemBW),
		board.Rate(exchange.DimFabric, exchange.DimCPU))
	fmt.Printf("  %-22s %9s %9s %9s %9s %8s %8s\n",
		"holder", "cpu-ent", "cpu-spent", "fab-ent", "fab-spent", "fab-buy", "fab-sell")
	for _, h := range bk.Holders() {
		fmt.Printf("  %-22s %9d %9d %9d %9d %8d %8d\n", h.Name(),
			h.Entitlement(exchange.DimCPU), h.Spent(exchange.DimCPU),
			h.Entitlement(exchange.DimFabric), h.Spent(exchange.DimFabric),
			h.Bought(exchange.DimFabric), h.Sold(exchange.DimFabric))
	}
}

// renderSched prints the scheduler's lifetime totals and each shard's
// counters since the previous refresh, and returns the current counters.
func renderSched(s *schedshard.Scheduler, last []schedshard.ShardCounters) []schedshard.ShardCounters {
	fmt.Printf("sched: round %d  bound %d  failed %d  pending %d  conflicts %d  retries %d\n",
		s.Rounds(), len(s.Bound()), len(s.Failed()), s.PendingLen(), s.Conflicts(), s.Retries())
	fmt.Printf("%6s %9s %9s %10s %8s   (since last refresh)\n",
		"shard", "proposed", "committed", "conflicted", "starved")
	cur := s.Shards()
	for i, sc := range cur {
		var p schedshard.ShardCounters
		if i < len(last) {
			p = last[i]
		}
		fmt.Printf("%6d %9d %9d %10d %8d\n", sc.Shard,
			sc.Proposed-p.Proposed, sc.Committed-p.Committed,
			sc.Conflicted-p.Conflicted, sc.Starved-p.Starved)
	}
	return cur
}

// capStr formats a CPU cap in percent; 0 means uncapped.
func capStr(pct int) string {
	if pct > 0 {
		return fmt.Sprintf("%d", pct)
	}
	return "-"
}

// intfFlag marks a VM judged interfered-with as the victim and one charged
// above the base rate as taxed.
func intfFlag(interfered bool, rate float64) string {
	switch {
	case interfered:
		return "victim"
	case rate > 1:
		return "taxed"
	}
	return ""
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
	fmt.Printf("resextop — attached to %s\n", socket)
	err = daemon.Watch(conn, samples, func(_ []byte, t daemon.Telemetry) {
		render(os.Stdout, t)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(1)
	}
}

// render writes one daemon telemetry sample with resextop's columns. MTU/s
// scales VMStat.MTURate, MTUs per ResEx interval, to per second.
func render(w io.Writer, t daemon.Telemetry) {
	state := ""
	if t.Paused {
		state = "  [paused]"
	}
	fmt.Fprintf(w, "\n[t=%v  epoch %d  policy %s]%s\n",
		time.Duration(t.AtNs), t.Epoch, t.Policy, state)
	fmt.Fprintf(w, "%-18s %7s %6s %12s %10s %6s %8s\n",
		"VM", "rate", "cap%", "resos", "MTU/s", "conf", "intf?")
	for _, vm := range t.VMs {
		fmt.Fprintf(w, "%-18s %7.2f %6s %12d %10.0f %6.2f %8s\n",
			vm.Name, vm.Rate, capStr(vm.CapPct), vm.Resos, vm.MTURate/resex.Interval.Seconds(),
			vm.Confidence, intfFlag(vm.Interfered, vm.Rate))
	}
	fmt.Fprintf(w, "%-10s %10s %11s %8s %7s %9s %7s\n",
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
		fmt.Fprintf(w, "%-10s %10.0f %11.0f %8d %7d %9.0f %7s\n",
			name, tn.OfferedPerSec, tn.CompletedPerSec,
			tn.Inflight, tn.Queued, tn.P99, slo)
	}
}
