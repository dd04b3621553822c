// Command resextop is a xentop-style monitor for the simulated platform. It
// renders one of three sources, every refresh period of virtual time:
//
//	resextop                            # resexd's default session, in process
//	resextop -policy freemarket -duration 3s -refresh 250ms
//	resextop -fig fig7                  # any registered experiment
//	resextop -attach /tmp/resexd.sock   # a running resexd session
//
// Every mode prints a daemon.Telemetry sample with Telemetry.WriteText, the
// printer resexctl status uses too: a header line (virtual time, epoch,
// policy), the VM table (rate, cap, Resos, MTU rate, confidence and
// victim/taxed flag), the tenant table (offered and completed rates,
// inflight, queue, p99 and SLO attainment) and one line per trade book
// (epoch, trades, prices) with its holders' positions. Sections with no
// rows are skipped.
//
// With no -fig or -attach resextop runs resexd's default session in process
// (daemon.DefaultTenants, lat:latency and bulk:bulk: a closed-loop latency
// tenant against a bursty 2 MB bulk tenant, one quantum per refresh) and
// prints every quantum. With -attach it runs nothing itself: it subscribes
// to a running resexd daemon's telemetry stream and prints each sample.
//
// With -fig it runs the registered experiment's driver under a watch plan
// (snapshot.NewWatch) and builds a sample for every engine the driver
// builds from that engine's snapshot.Source, with the daemon's row
// constructors. The header names the engine, and VM rows add the host and
// the CPU% since the previous refresh. After the sample come the sections
// only experiments have: per host with an IBMon monitor, its telemetry
// health and the bytes IBMon inferred its VMs sent against the bytes its
// HCA sent, with the error in percent (Monitors, e.g. -fig abl-faults, or
// the managers' monitors, e.g. -fig fig7); and scheduler rounds, binds,
// conflicts and per-shard counter deltas (Sched, e.g. -fig abl-shardsched).
// The watch is seq-neutral, so the driver's result, printed at the end, is
// byte-identical to resexsim's. Drivers that arm their own snapshot plans
// (abl-restart's capture and restore runs) are watched only on the engines
// they leave unplanned.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"resex/internal/daemon"
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
// one quantum per refresh — and prints every quantum's sample with the
// markets the daemon stamps on it.
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
		t := s.Telemetry()
		t.Markets = daemon.MarketRows(s.Books())
		show(t)
	}
}

// show prints one sample after a blank line.
func show(t daemon.Telemetry) {
	fmt.Println()
	if err := t.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(1)
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
// Engines are numbered from 1 in the order they first fire.
type watcher map[snapshot.Key]*seen

// seen is one engine's readings at its previous refresh, the baseline for
// the per-period CPU% and shard-counter deltas.
type seen struct {
	engine    int
	refreshes int64
	at        sim.Time
	cpu       map[*resex.ManagedVM]sim.Time
	shards    []schedshard.ShardCounters
}

// watch renders one engine's source as a telemetry sample, then the
// sections only experiments have. It only reads, so the watched run stays
// event-identical to an unwatched one.
func (w watcher) watch(k snapshot.Key, eng *sim.Engine, src *snapshot.Source) {
	last := w[k]
	if last == nil {
		last = &seen{engine: len(w) + 1, cpu: map[*resex.ManagedVM]sim.Time{}}
		w[k] = last
	}
	now := eng.Now()
	last.refreshes++
	t := daemon.Telemetry{AtNs: int64(now), Epoch: last.refreshes, Engine: last.engine}
	for hi, m := range src.Managers {
		if m == nil {
			continue
		}
		t.Policy = m.Policy().Name()
		for _, vm := range m.VMs() {
			row := daemon.VMRow(vm)
			cpu := vm.Dom.CPUTime()
			row.Host, row.CPUPct = hi, 100*float64(cpu-last.cpu[vm])/float64(now-last.at)
			last.cpu[vm] = cpu
			t.VMs = append(t.VMs, row)
		}
	}
	if src.Workload != nil {
		t.Tenants = daemon.TenantRows(src.Workload)
	}
	t.Markets = daemon.MarketRows(resex.Books(src.Managers))
	show(t)
	renderHosts(src)
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
	err = daemon.Watch(conn, samples, func(_ []byte, t daemon.Telemetry) { show(t) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "resextop:", err)
		os.Exit(1)
	}
}
