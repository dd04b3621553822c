package experiments

import (
	"fmt"
	"io"

	"resex/internal/faults"
	"resex/internal/placement"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/stats"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-faults: fault intensity vs SLA attainment, naive vs degradation-aware.
// ---------------------------------------------------------------------------

// AblFaultsRow is one (intensity, stack) outcome.
type AblFaultsRow struct {
	// StormsPerSec is the injected fault intensity across the fleet.
	StormsPerSec float64 `col:"storms/s,%-10.1f,storms_per_sec"`
	// Stack is "naive" (unconditional caps, no quarantine) or "aware"
	// (confidence-gated caps, blackout quarantine, migration backoff).
	Stack string `col:"stack,%-7s,stack"`
	// SLAPct is the mean per-app *time-weighted* SLA attainment (%): the
	// fraction of the measured window each app spent serving within the SLA.
	// Every completion covers the wall time since the previous one, so a
	// 10 ms request counts as 10 ms of violation rather than one sample
	// among thousands — without this, a throttled-to-the-floor VM barely
	// dents a request-weighted average because it also barely serves
	// (coordinated omission).
	SLAPct float64 `col:"SLA(%),%8.1f,sla_pct"`
	// WorstMean is the worst per-app mean service time (µs).
	WorstMean float64 `col:"worst(µs),%11.1f,worst_mean_us"`
	// Wrongful counts cap decreases applied while the evidence behind them
	// was stale (blackout or low IBMon confidence) — zero by construction
	// for the aware stack.
	Wrongful int64 `col:"wrongful,%9d,wrongful_throttles"`
	// Held counts cap decreases the aware stack refused on stale evidence.
	Held int64 `col:"held,%6d,held_tightenings"`
	// Faults is how many fault events actually fired during the run.
	Faults int `col:"faults,%7d,faults_fired"`
}

// AblFaultsResult sweeps fault intensity over an identical fleet and workload
// mix, once with the naive control stack and once with the degradation-aware
// one. The storms are adversarial for an introspection-driven manager: each
// one stacks a telemetry blackout over a genuine link degradation, so victim
// latency rises exactly while the evidence for *why* goes stale. The naive
// stack keeps attributing the elevation to the biggest sender on stale MTU
// ratios and throttles it into the floor (a wrongful throttle the cap-recovery
// backoff then stretches far past the storm); the aware stack holds last-known
// caps until confidence returns and keeps the fleet inside the SLA.
type AblFaultsResult struct {
	SLA  float64
	Rows []AblFaultsRow
}

// Title implements Result.
func (r *AblFaultsResult) Title() string {
	return "Ablation: fault injection and graceful degradation"
}

// WriteText implements Result.
func (r *AblFaultsResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (SLA %.0f µs)", r.Title(), r.SLA), r.Rows)
}

// WriteCSV implements Result.
func (r *AblFaultsResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// faultsSLAUs is the attainment bar: generous enough (2.5× the healthy base)
// that the fault physics alone — a serialization slowdown during a 100 ms
// degrade window — keeps requests within it, so the sweep isolates the damage
// the *policy* inflicts when it throttles on stale evidence.
const faultsSLAUs = workload.BaseSLAUs * 2.5

// faultsHosts is the worker-fleet size for the sweep.
const faultsHosts = 4

// faultsBaselineUs is the SLA reference handed to ResEx (the latency the
// policies judge elevation against). It sits above the fleet's measured
// steady-state contention (~290 µs for the fast/slow pair) so healthy
// operation never triggers repricing, and below the storm-window latency so
// fault-driven elevation does — which is the point: every throttle in this
// sweep happens on fault-corrupted evidence.
const faultsBaselineUs = workload.BaseSLAUs * 1.4

// faultsWorkloads builds the per-host pair: one "fast" reporter (window 2,
// the biggest sender on its host — the VM a stale attribution blames) and one
// "slow" reporter (window 1, the victim whose genuine fault-driven elevation
// triggers that attribution). Both are latency-sensitive with the same SLA.
func faultsWorkloads(seed int64) []placement.Workload {
	var ws []placement.Workload
	for i := 0; i < faultsHosts; i++ {
		ws = append(ws, placement.Workload{
			Name: fmt.Sprintf("fast%d", i), BufferSize: BaseBuffer,
			LatencySensitive: true, SLAUs: faultsBaselineUs, Window: 2,
			Seed: seed + int64(i) + 1,
		})
	}
	for i := 0; i < faultsHosts; i++ {
		ws = append(ws, placement.Workload{
			Name: fmt.Sprintf("slow%d", i), BufferSize: BaseBuffer,
			LatencySensitive: true, SLAUs: faultsBaselineUs, Window: 1,
			Seed: seed + 101 + int64(i),
		})
	}
	return ws
}

// runFaultsRow runs one (intensity, stack) cell: a fresh spread-placed fleet,
// the same seeded storm schedule, measured after the arrivals settle.
func runFaultsRow(o Options, stormsPerSec float64, aware bool) (AblFaultsRow, error) {
	row := AblFaultsRow{StormsPerSec: stormsPerSec, Stack: "naive"}
	cfg := placement.Config{
		Config:   workload.Config{Hosts: faultsHosts, ClientPCPUs: 2*faultsHosts + 2},
		Strategy: placement.PipelineStrategy{Label: "spread", P: schedshard.NewSpreadPipeline()},
		Seed:     o.Seed,
	}
	if aware {
		row.Stack = "aware"
		cfg.ConfidenceGate = 0.7
		cfg.QuarantineBlackouts = true
	}
	f := placement.NewFleet(cfg)
	snapSrc := snapshot.ForFleet(f)
	stopAudit := o.observe(f.TB.Eng, snapSrc)
	defer stopAudit()
	ws := faultsWorkloads(o.Seed)

	placeErr := admit(f, ws)

	// Storms open only after every placement is live and warmed up, and the
	// schedule depends solely on (seed, intensity) — both stacks face the
	// identical fault sequence.
	measureStart := arrivalGap*sim.Time(len(ws)) + o.Warmup
	inj := faults.NewInjector(f.TB.Eng)
	snapSrc.Injector = inj
	f.WireFaults(inj)
	hosts := make([]int, faultsHosts)
	for i := range hosts {
		hosts[i] = i + 1
	}
	inj.Arm(faults.Generate(o.Seed^0x5eed, faults.GenConfig{
		Hosts:        hosts,
		Start:        measureStart,
		Horizon:      measureStart + o.Duration,
		StormsPerSec: stormsPerSec,
	}))

	f.TB.Eng.RunUntil(measureStart + o.Duration)
	if err := placeErr(); err != nil {
		return row, err
	}

	measureEnd := measureStart + o.Duration
	slaTime := sim.Time(faultsSLAUs) * sim.Microsecond
	var attainSum float64
	var apps int
	for _, pl := range f.Placements() {
		apps++
		var ok, bad sim.Time
		var sum stats.Summary
		prev := measureStart
		for _, rec := range pl.Records() {
			if rec.Reaped < measureStart || rec.Reaped > measureEnd {
				continue
			}
			dt := rec.Reaped - prev
			prev = rec.Reaped
			if rec.Total() <= slaTime {
				ok += dt
			} else {
				bad += dt
			}
			sum.Add(rec.Total().Microseconds())
		}
		// Tail: if nothing completed for longer than the SLA bar, the
		// in-flight request has already blown it.
		if tail := measureEnd - prev; tail > slaTime {
			bad += tail
		} else {
			ok += tail
		}
		attainSum += float64(ok) / float64(ok+bad)
		if sum.Mean() > row.WorstMean {
			row.WorstMean = sum.Mean()
		}
	}
	if apps > 0 {
		row.SLAPct = 100 * attainSum / float64(apps)
	}
	for _, mgr := range f.Mgrs {
		fs := mgr.FaultStats()
		row.Wrongful += fs.WrongfulThrottles
		row.Held += fs.HeldTightenings
	}
	row.Faults = len(inj.Fired())
	f.TB.Eng.Shutdown()
	return row, nil
}

// AblFaults runs the intensity × stack sweep.
func AblFaults(o Options) (*AblFaultsResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblFaultsRow, error)
	for _, storms := range []float64{0, 4, 12, 24} {
		for _, aware := range []bool{false, true} {
			points = append(points, func(o Options) (AblFaultsRow, error) {
				return runFaultsRow(o, storms, aware)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblFaultsResult{SLA: faultsSLAUs, Rows: rows}, nil
}
