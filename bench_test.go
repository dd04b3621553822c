package resex

// The root benchmarks measure what no other harness does: three
// sensitivity sweeps that no registered driver runs, the HCA and full-stack
// throughput of the simulator itself, and the hot-loop overhead gates of
// the fault injector and the invariant auditor. Every registered figure and
// ablation reproduces with `resexsim -fig <id>`, and bench/run.sh times them.

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
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// benchOpts keeps per-iteration virtual time small enough for the -bench
// runner while long enough for stable shapes.
func benchOpts() experiments.Options {
	return experiments.Options{Duration: 200 * sim.Millisecond, Warmup: 50 * sim.Millisecond}
}

// ---------------------------------------------------------------------------
// Sensitivity sweeps no registered driver runs.
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Microbenchmarks: simulator core performance (events/sec, messages/sec).
// ---------------------------------------------------------------------------

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
// Hot-loop overhead budgets: the fault injector and the invariant auditor.
// ---------------------------------------------------------------------------

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
		src := &snapshot.Source{TB: s.TB, Managers: []*resex.Manager{s.Mgr}}
		a := src.Audit(s.TB.Eng, invariant.NewCollector(invariant.Audit))
		s.Start()
		return s.TB.Eng, func() { a.Close(); s.Shutdown() }
	})
}
