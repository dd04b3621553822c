package resex

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/experiments"
	"resex/internal/faults"
	"resex/internal/ibmon"
	"resex/internal/invariant"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/workload"
)

// benchOpts keeps per-iteration virtual time small enough for the -bench
// runner while long enough for stable shapes. Individual figures can be
// regenerated at full scale with cmd/resexsim.
func benchOpts() experiments.Options {
	return experiments.Options{Duration: 200 * sim.Millisecond, Warmup: 50 * sim.Millisecond}
}

// runFigure executes one registered figure per benchmark iteration.
func runFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1LatencyDistribution regenerates Figure 1 (latency histogram,
// Normal vs Interfered) and reports the two means.
func BenchmarkFig1LatencyDistribution(b *testing.B) {
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.NormalMean, "normal_us")
	b.ReportMetric(last.InterferedMean, "interfered_us")
	b.ReportMetric(last.InterferedStd, "interfered_sd")
}

// BenchmarkFig2MultiServer regenerates Figure 2 (components vs #servers).
func BenchmarkFig2MultiServer(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFig3BufferRatio regenerates Figure 3 (cap = 100/BufferRatio)
// and reports the flatness of the capped-latency bars.
func BenchmarkFig3BufferRatio(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := r.Rows[0].Total(), r.Rows[0].Total()
		for _, row := range r.Rows {
			if t := row.Total(); t < lo {
				lo = t
			} else if t > hi {
				hi = t
			}
		}
		spread = hi / lo
	}
	b.ReportMetric(spread, "max/min")
}

// BenchmarkFig4CapSweep regenerates Figure 4 (latency vs interferer cap)
// and reports the endpoints.
func BenchmarkFig4CapSweep(b *testing.B) {
	var uncapped, cap3, base float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		uncapped = r.Rows[0].Total()
		cap3 = r.Rows[len(r.Rows)-2].Total()
		base = r.Rows[len(r.Rows)-1].Total()
	}
	b.ReportMetric(uncapped, "uncapped_us")
	b.ReportMetric(cap3, "cap3_us")
	b.ReportMetric(base, "base_us")
}

// BenchmarkFig5FreeMarket regenerates Figure 5 and reports the three-way
// latency comparison.
func BenchmarkFig5FreeMarket(b *testing.B) {
	var r *experiments.TimelineResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig5(experiments.Options{Duration: 1200 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BaseMean, "base_us")
	b.ReportMetric(r.IntfMean, "interfered_us")
	b.ReportMetric(r.PolicyMean, "freemarket_us")
}

// BenchmarkFig6ResoDepletion regenerates Figure 6 and reports how deep the
// interferer's account fell.
func BenchmarkFig6ResoDepletion(b *testing.B) {
	var minFrac float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(experiments.Options{Duration: 1200 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		minFrac = r.IntfMinFraction
	}
	b.ReportMetric(minFrac*100, "min_balance_pct")
}

// BenchmarkFig7IOShares regenerates Figure 7 and reports the interference
// recovery.
func BenchmarkFig7IOShares(b *testing.B) {
	var r *experiments.TimelineResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig7(experiments.Options{Duration: 400 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.BaseMean, "base_us")
	b.ReportMetric(r.IntfMean, "interfered_us")
	b.ReportMetric(r.PolicyMean, "ioshares_us")
	if r.IntfMean > r.BaseMean {
		b.ReportMetric(100*(r.IntfMean-r.PolicyMean)/(r.IntfMean-r.BaseMean), "recovered_pct")
	}
}

// BenchmarkFig8NoInterference regenerates Figure 8.
func BenchmarkFig8NoInterference(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkFig9BufferSweep regenerates Figure 9 and reports the 1MB-buffer
// policy separation.
func BenchmarkFig9BufferSweep(b *testing.B) {
	var fm, ios float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := r.Rows[len(r.Rows)-1]
		fm, ios = last.FreeMarket, last.IOShares
	}
	b.ReportMetric(fm, "freemarket_1mb_us")
	b.ReportMetric(ios, "ioshares_1mb_us")
}

// ---------------------------------------------------------------------------
// Ablations: design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// BenchmarkAblationLinkDiscipline runs abl-arb: per-MTU round-robin
// arbitration (IB virtual lanes) against FIFO head-of-line blocking for the
// reporting VM under interference.
func BenchmarkAblationLinkDiscipline(b *testing.B) { runFigure(b, "abl-arb") }

// BenchmarkAblationIBMonPeriod sweeps the introspection sampling period and
// reports the byte-estimation error on a deliberately small (16-entry) CQ,
// so slow sampling enters the lossy, extrapolating regime.
func BenchmarkAblationIBMonPeriod(b *testing.B) {
	for _, period := range []sim.Time{100 * sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond} {
		b.Run(period.String(), func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				tb := cluster.New(cluster.Config{})
				hostA, hostB := tb.AddHost(1), tb.AddHost(2)
				app, err := tb.NewApp("app", hostA, hostB,
					benchex.ServerConfig{BufferSize: 64 << 10, CQDepth: 16},
					benchex.ClientConfig{BufferSize: 64 << 10})
				if err != nil {
					b.Fatal(err)
				}
				mon := ibmon.New(hostA.HV, nil, ibmon.Config{Period: period})
				tgt, err := mon.WatchCQ(app.ServerVM.Dom.ID(), app.Server.SendCQ())
				if err != nil {
					b.Fatal(err)
				}
				app.Start()
				mon.Start(tb.Eng)
				tb.Eng.RunUntil(200 * sim.Millisecond)
				mon.Stop()
				truth := hostA.HCA.BytesSent()
				if truth > 0 {
					errPct = 100 * float64(tgt.Usage().BytesSent-truth) / float64(truth)
					if errPct < 0 {
						errPct = -errPct
					}
				}
				tb.Eng.Shutdown()
			}
			b.ReportMetric(errPct, "abs_err_pct")
		})
	}
}

// BenchmarkAblationInterfererRate sweeps the interference generator's
// request rate, showing how reporting latency scales with offered load.
func BenchmarkAblationInterfererRate(b *testing.B) {
	for _, interval := range []sim.Time{10 * sim.Millisecond, 5 * sim.Millisecond, 2500 * sim.Microsecond} {
		b.Run(fmt.Sprintf("every-%v", interval), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				s, err := experiments.Build(experiments.ScenarioConfig{
					IntfBuffer:   workload.BulkBuffer,
					IntfInterval: interval,
				})
				if err != nil {
					b.Fatal(err)
				}
				s.RunMeasured(benchOpts())
				lat = s.RepStats().Total.Mean()
			}
			b.ReportMetric(lat, "latency_us")
		})
	}
}

// BenchmarkAblationNICRateLimit runs abl-mech: ResEx's CPU-cap mechanism
// against the per-flow NIC rate limiting of newer adapters (which the
// paper's introduction anticipates), both throttling the 2MB interferer.
func BenchmarkAblationNICRateLimit(b *testing.B) { runFigure(b, "abl-mech") }

// BenchmarkAblationEpochLength sweeps FreeMarket's epoch length: shorter
// epochs replenish the interferer sooner and weaken the policy.
func BenchmarkAblationEpochLength(b *testing.B) {
	for _, perEpoch := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("%d-intervals", perEpoch), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				tb := cluster.New(cluster.Config{})
				hostA, hostB := tb.AddHost(1), tb.AddHost(2)
				rep, err := tb.NewApp("rep", hostA, hostB,
					benchex.ServerConfig{BufferSize: 64 << 10},
					benchex.ClientConfig{BufferSize: 64 << 10})
				if err != nil {
					b.Fatal(err)
				}
				intf, err := tb.NewApp("intf", hostA, hostB,
					benchex.ServerConfig{BufferSize: 2 << 20, ProcessTime: 2 * sim.Millisecond, PipelineResponses: true},
					benchex.ClientConfig{BufferSize: 2 << 20, Window: 16, Arrivals: benchex.Paced{Every: 2500 * sim.Microsecond}})
				if err != nil {
					b.Fatal(err)
				}
				dom0 := hostA.Dom0VCPU()
				mon := ibmon.New(hostA.HV, dom0, ibmon.Config{})
				mgr := resex.New(tb.Eng, hostA.HV, mon, dom0, resex.NewFreeMarket(),
					resex.Config{IntervalsPerEpoch: perEpoch})
				if _, err := mgr.Manage(rep.ServerVM.Dom, rep.Server.SendCQ(), 0); err != nil {
					b.Fatal(err)
				}
				if _, err := mgr.Manage(intf.ServerVM.Dom, intf.Server.SendCQ(), 0); err != nil {
					b.Fatal(err)
				}
				rep.Start()
				intf.Start()
				mon.Start(tb.Eng)
				mgr.Start()
				tb.Eng.RunUntil(1500 * sim.Millisecond)
				lat = rep.Server.Stats().Total.Mean()
				tb.Eng.Shutdown()
			}
			b.ReportMetric(lat, "latency_us")
		})
	}
}

// BenchmarkAblationPollingVsEvents runs abl-events: busy-polling against
// event-driven completions for a capped server — spinning burns the cap
// budget, events preserve it for real work.
func BenchmarkAblationPollingVsEvents(b *testing.B) { runFigure(b, "abl-events") }

// BenchmarkAblPlacement regenerates the placement ablation and reports the
// SLA-attainment gap between interference-aware and random placement at the
// larger fleet scale (8 hosts, 16 VMs).
func BenchmarkAblPlacement(b *testing.B) {
	var ia, rd float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblPlacement(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Hosts != 8 {
				continue
			}
			switch row.Strategy {
			case "intf-aware":
				ia = row.SLAPct
			case "random":
				rd = row.SLAPct
			}
		}
	}
	b.ReportMetric(ia, "intf_aware_sla_pct")
	b.ReportMetric(rd, "random_sla_pct")
}

// BenchmarkConsolidationCapacity runs abl-capacity, the paper's motivating
// question: exchanges run below 10% utilization, so how many
// latency-sensitive applications can share a host within an SLA?
func BenchmarkConsolidationCapacity(b *testing.B) { runFigure(b, "abl-capacity") }

// ---------------------------------------------------------------------------
// Microbenchmarks: simulator core performance (events/sec, messages/sec).
// ---------------------------------------------------------------------------

// BenchmarkEngineEvents measures raw event throughput of the DES core.
// Steady state must be allocation-free: events come from the engine's pool
// and Timer handles are values.
func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			eng.After(100, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.After(100, tick)
	eng.Run()
}

// BenchmarkHCASmallMessages measures end-to-end message throughput of the
// HCA+fabric stack (1KB sends, completion-driven).
func BenchmarkHCASmallMessages(b *testing.B) {
	tb := cluster.New(cluster.Config{})
	hostA, hostB := tb.AddHost(1), tb.AddHost(2)
	app, err := tb.NewApp("app", hostA, hostB,
		benchex.ServerConfig{BufferSize: 1 << 10},
		benchex.ClientConfig{BufferSize: 1 << 10, Requests: 0, Window: 8})
	if err != nil {
		b.Fatal(err)
	}
	app.Start()
	b.ResetTimer()
	target := int64(b.N)
	for app.Server.Stats().Served < target {
		tb.Eng.RunUntil(tb.Eng.Now() + 10*sim.Millisecond)
	}
	b.StopTimer()
	tb.Eng.Shutdown()
}

// BenchmarkFullStackSimSecond measures wall time per simulated second of
// the complete ResEx/IOShares interference scenario — the repo's main
// "how expensive is a run" number.
func BenchmarkFullStackSimSecond(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Build(experiments.ScenarioConfig{
			IntfBuffer: workload.BulkBuffer,
			Policy:     resex.NewIOShares(),
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Start()
		s.TB.Eng.RunUntil(sim.Second)
		s.Shutdown()
	}
}

// ---------------------------------------------------------------------------
// Fault injection: end-to-end ablation + hot-loop overhead budget.
// ---------------------------------------------------------------------------

// BenchmarkAblFaults exercises the fault-storm ablation end to end
// (naive and degradation-aware stacks across the intensity sweep).
func BenchmarkAblFaults(b *testing.B) { runFigure(b, "abl-faults") }

// maxOverheadPct is the hot-loop budget of an observer that must not
// change what it observes: the fault injector armed with an empty schedule,
// and the invariant auditor.
const maxOverheadPct = 2.0

// minOverheadIters is the fewest iterations whose slice ratios are held to
// maxOverheadPct. Fewer — the -bench runner's N=1 probe before an -Nx run —
// are recorded as informational.
const minOverheadIters = 16

// overheadSlice is how far one side of an overhead pair advances before the
// other side takes its turn.
const overheadSlice = 10 * sim.Millisecond

// pairedOverhead builds the scenario unarmed and armed b.N times, advances
// the two side by side to one simulated second in overheadSlice steps, and
// records in file the median over all slices of armed/unarmed wall time, as
// an overhead percent.
//
// A shared machine's speed drifts by tens of percent over seconds, so
// comparing whole runs, even their minima, cannot resolve a 2% budget.
// Adjacent slices run a few milliseconds apart and see the same machine; the
// order within a slice alternates so that neither side always runs second;
// and the median drops the slices a GC cycle or a preemption landed in.
// The observers' cost is per event, so it shows in every slice.
func pairedOverhead(b *testing.B, file, name string, rig func(armed bool) (*sim.Engine, func())) {
	b.Helper()
	var ratios []float64
	var sides [2]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var engs [2]*sim.Engine
		var dones [2]func()
		engs[0], dones[0] = rig(false)
		engs[1], dones[1] = rig(true)
		for k, at := 0, overheadSlice; at <= sim.Second; k, at = k+1, at+overheadSlice {
			var d [2]time.Duration
			for j := range 2 {
				side := (j + k) % 2
				start := time.Now()
				engs[side].RunUntil(at)
				d[side] = time.Since(start)
			}
			sides[0] += d[0]
			sides[1] += d[1]
			ratios = append(ratios, d[1].Seconds()/d[0].Seconds())
		}
		dones[0]()
		dones[1]()
	}
	b.StopTimer()
	slices.Sort(ratios)
	median := (ratios[(len(ratios)-1)/2] + ratios[len(ratios)/2]) / 2
	rec := benchRecord{
		Name: name + ".overhead_pct", Unit: "ns/sim_s",
		Baseline: float64(sides[0].Nanoseconds()) / float64(b.N),
		Current:  float64(sides[1].Nanoseconds()) / float64(b.N),
		Value:    100 * (median - 1),
		Note:     fmt.Sprintf("median armed/unarmed wall-time ratio over %d interleaved %gms slices in %d iterations", len(ratios), overheadSlice.Milliseconds(), b.N),
	}
	if b.N >= minOverheadIters {
		rec.Ceiling = limit(maxOverheadPct)
	} else {
		rec.Note += fmt.Sprintf("; fewer than %d iterations, too noisy to hold to the budget", minOverheadIters)
	}
	writeBenchRecords(b, file, []benchRecord{rec})
}

// BenchmarkFaultsEmptyScheduleOverhead measures what merely wiring the
// injector — hosts attached, empty schedule armed — costs the hot event
// loop, against the maxOverheadPct budget, on one simulated second of the
// full ResEx/IOShares scenario per side per iteration. The record lands in
// BENCH_faults.json.
func BenchmarkFaultsEmptyScheduleOverhead(b *testing.B) {
	pairedOverhead(b, "BENCH_faults.json", "faults", func(withInjector bool) (*sim.Engine, func()) {
		s, err := experiments.Build(experiments.ScenarioConfig{
			IntfBuffer: workload.BulkBuffer,
			Policy:     resex.NewIOShares(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if withInjector {
			h := s.TB.Host(1)
			inj := faults.NewInjector(s.TB.Eng)
			inj.AttachHost(faults.HostPorts{
				Node: h.Node, Uplink: h.Uplink, Downlink: h.Downlink,
				HCA: h.HCA, Mon: s.Mon,
			})
			inj.Arm(faults.Schedule{})
		}
		s.Start()
		return s.TB.Eng, s.Shutdown
	})
}

// ---------------------------------------------------------------------------
// Workload engine: the three abl-workload studies end to end.
// ---------------------------------------------------------------------------

// BenchmarkAblWorkload runs the offered-load sweep (both policies, every
// load point) once per iteration.
func BenchmarkAblWorkload(b *testing.B) { runFigure(b, "abl-workload") }

// BenchmarkAblWorkloadMix runs the mixed-class scenario (unmanaged,
// FreeMarket, IOShares) once per iteration.
func BenchmarkAblWorkloadMix(b *testing.B) { runFigure(b, "abl-workload-mix") }

// ---------------------------------------------------------------------------
// Invariant auditor: hot-loop overhead budget.
// ---------------------------------------------------------------------------

// BenchmarkAuditOverhead measures what -audit costs the hot event loop —
// the per-event stride mask plus the sampled predicate passes — on the full
// ResEx/IOShares interference scenario (the same rig `benchex -intf-buffer
// 2MB -policy ioshares -audit` runs), against the maxOverheadPct budget,
// with the same interleaved slices as the faults overhead. The record lands
// in BENCH_invariant.json.
func BenchmarkAuditOverhead(b *testing.B) {
	pairedOverhead(b, "BENCH_invariant.json", "invariant", func(audited bool) (*sim.Engine, func()) {
		s, err := experiments.Build(experiments.ScenarioConfig{
			IntfBuffer: workload.BulkBuffer,
			Policy:     resex.NewIOShares(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !audited {
			s.Start()
			return s.TB.Eng, s.Shutdown
		}
		a := invariant.New(s.TB.Eng, invariant.NewCollector(invariant.Audit))
		for _, h := range s.TB.Hosts {
			a.WatchXen(h.HV)
			a.WatchHCA(h.HCA)
		}
		if s.Mgr != nil {
			a.WatchManager(s.Mgr)
		}
		s.Start()
		return s.TB.Eng, func() { a.Close(); s.Shutdown() }
	})
}
