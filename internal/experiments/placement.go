package experiments

import (
	"fmt"
	"io"

	"resex/internal/benchex"
	"resex/internal/placement"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/stats"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-placement: fleet-level placement strategy vs SLA attainment.
// ---------------------------------------------------------------------------

// AblPlacementRow is one (strategy, scale) outcome.
type AblPlacementRow struct {
	Strategy string `col:"strategy,%-14s,strategy"`
	Hosts    int    `col:"hosts,%6d,hosts"`
	VMs      int    `col:"vms,%5d,vms"`
	// SLAPct is the mean per-app SLA attainment (%) over the
	// latency-sensitive apps: each app contributes the fraction of its own
	// measured requests served within the SLA, so a drowned app that barely
	// serves counts fully against the strategy instead of vanishing from a
	// request-weighted average.
	SLAPct float64 `col:"SLA(%),%10.1f,sla_pct"`
	// WorstMean is the worst per-app mean service time (µs).
	WorstMean float64 `col:"worst(µs),%12.1f,worst_mean_us"`
	// BulkMBs is the aggregate bulk-class egress during the measured
	// window (MB/s): what the interferers still get. Throttling buys SLA by
	// destroying this; good placement keeps both.
	BulkMBs float64 `col:"bulk MB/s,%10.1f,bulk_mb_s"`
	// Migrations is how many live migrations the rebalancer performed.
	Migrations int `col:"migrations,%11d,migrations"`
}

// AblPlacementResult compares placement strategies across fleet scales. All
// strategies place the same shuffled arrival sequence of ~25% large-buffer
// bulk VMs among latency-sensitive VMs; every host runs IOShares, so the
// comparison isolates what *placement* adds on top of the paper's per-host
// throttling.
type AblPlacementResult struct {
	SLA  float64
	Rows []AblPlacementRow
}

// Title implements Result.
func (r *AblPlacementResult) Title() string {
	return "Ablation: interference-aware placement across a multi-host fleet"
}

// WriteText implements Result.
func (r *AblPlacementResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (SLA %.0f µs)", r.Title(), r.SLA), r.Rows)
}

// WriteCSV implements Result.
func (r *AblPlacementResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// placementSLAUs is the attainment SLA: measured base latency plus the
// same 25%% guard band abl-capacity uses (a per-request bar, so it must
// leave room for ordinary closed-loop jitter on a healthy host).
const placementSLAUs = 233.5 * 1.25

// placementLS builds one latency-sensitive workload (the 64KB reporter).
func placementLS(i int, seed int64) placement.Workload {
	return placement.Workload{
		Name: fmt.Sprintf("ls%d", i), BufferSize: BaseBuffer,
		LatencySensitive: true, SLAUs: workload.BaseSLAUs, Window: 1,
		Seed: seed + int64(i) + 1,
	}
}

// placementBulk builds one large-buffer bursty interferer (the 2MB class).
func placementBulk(i int, seed int64) placement.Workload {
	return placement.Workload{
		Name: fmt.Sprintf("bulk%d", i), BufferSize: workload.BulkBuffer, Window: 16,
		Arrivals:    benchex.Bursty{Mean: 3700 * sim.Microsecond},
		ProcessTime: 2 * sim.Millisecond, PipelineResponses: true,
		Seed: seed + 999 + int64(i),
	}
}

// placementWorkloads builds the arrival sequence for a scale: ~25% bulk,
// shuffled so class arrivals interleave unpredictably but identically for
// every strategy at a given seed. (A fixed stride would phase-lock with
// round-robin spreading and accidentally segregate the classes.)
func placementWorkloads(vms int, seed int64) []placement.Workload {
	var ws []placement.Workload
	nLS, nBulk := 0, 0
	for i := 0; i < vms; i++ {
		if i%4 == 3 {
			ws = append(ws, placementBulk(nBulk, seed))
			nBulk++
		} else {
			ws = append(ws, placementLS(nLS, seed))
			nLS++
		}
	}
	shuffle(ws, seed^0x9e3779b9)
	return ws
}

// placementStrategy is one row's scheduler configuration.
type placementStrategy struct {
	name      string
	make      func() placement.Strategy
	rebalance bool
}

func placementStrategies() []placementStrategy {
	return []placementStrategy{
		{name: "random", make: func() placement.Strategy { return placement.RandomStrategy{} }},
		{name: "spread", make: func() placement.Strategy {
			return placement.PipelineStrategy{Label: "spread", P: schedshard.NewSpreadPipeline()}
		}},
		{name: "intf-aware", make: func() placement.Strategy {
			return placement.PipelineStrategy{Label: "intf-aware", P: schedshard.NewInterferencePipeline()}
		}},
		{name: "random+rb", rebalance: true, make: func() placement.Strategy { return placement.RandomStrategy{} }},
	}
}

// arrivalGap is the pause between two admissions in the fleet drivers.
const arrivalGap = 25 * sim.Millisecond

// admit spawns the Proc that places ws on f one every arrivalGap, stopping
// at the first Place error, which the returned func reports once the run is
// over.
func admit(f *placement.Fleet, ws []placement.Workload) func() error {
	var placeErr error
	f.TB.Eng.Go("arrivals", func(p *sim.Proc) {
		for _, w := range ws {
			if _, err := f.Place(w); err != nil {
				placeErr = err
				return
			}
			p.Sleep(arrivalGap)
		}
	})
	return func() error { return placeErr }
}

// runPlacementRow stages the arrival sequence on a fresh fleet under one
// strategy and measures SLA attainment after the fleet settles.
func runPlacementRow(o Options, hosts, vms int, strat placementStrategy) (AblPlacementRow, error) {
	row := AblPlacementRow{Strategy: strat.name, Hosts: hosts, VMs: vms}
	f := placement.NewFleet(placement.Config{
		Config:   workload.Config{Hosts: hosts, ClientPCPUs: vms + 2},
		Strategy: strat.make(),
		Seed:     o.Seed + int64(hosts)*1000 + int64(vms),
	})
	stopAudit := o.observe(f.TB.Eng, snapshot.ForFleet(f))
	defer stopAudit()
	ws := placementWorkloads(vms, o.Seed)

	placeErr := admit(f, ws)
	if strat.rebalance {
		rb := placement.NewRebalancer(f, placement.RebalanceConfig{MaxMigrations: vms})
		rb.Start()
	}

	// Snapshot every server's served count when measuring begins, so bulk
	// throughput covers exactly the measured window (bulk servers keep no
	// per-request timeline).
	measureStart := arrivalGap*sim.Time(vms) + o.Warmup
	servedAtStart := make(map[string]int64)
	f.TB.Eng.Schedule(measureStart, func() {
		for _, pl := range f.Placements() {
			servedAtStart[pl.Spec.Name] = servedTotal(pl)
		}
	})
	f.TB.Eng.RunUntil(measureStart + o.Duration)
	if err := placeErr(); err != nil {
		return row, err
	}

	var attainSum float64
	var apps int
	var bulkBytes float64
	for _, pl := range f.Placements() {
		if !pl.Spec.LatencySensitive {
			bulkBytes += float64(servedTotal(pl)-servedAtStart[pl.Spec.Name]) * float64(pl.Spec.BufferSize)
			continue
		}
		apps++
		var within, total int64
		var sum stats.Summary
		for _, rec := range pl.Records() {
			if rec.Reaped < measureStart {
				continue
			}
			us := rec.Total().Microseconds()
			total++
			if us <= placementSLAUs {
				within++
			}
			sum.Add(us)
		}
		if total > 0 {
			attainSum += float64(within) / float64(total)
		}
		if sum.Mean() > row.WorstMean {
			row.WorstMean = sum.Mean()
		}
	}
	if apps > 0 {
		row.SLAPct = 100 * attainSum / float64(apps)
	}
	row.BulkMBs = bulkBytes / o.Duration.Seconds() / 1e6
	row.Migrations = len(f.Log.Migrations)
	f.TB.Eng.Shutdown()
	return row, nil
}

// servedTotal counts requests served across every incarnation of the
// placement's server (migration retires server stats into History).
func servedTotal(pl *placement.Placement) int64 {
	n := pl.App.Server.Stats().Served
	for _, h := range pl.History {
		n += h.Served
	}
	return n
}

// AblPlacement runs the strategy × scale grid.
func AblPlacement(o Options) (*AblPlacementResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblPlacementRow, error)
	for _, scale := range []struct{ hosts, vms int }{{4, 8}, {8, 16}} {
		for _, strat := range placementStrategies() {
			points = append(points, func(o Options) (AblPlacementRow, error) {
				return runPlacementRow(o, scale.hosts, scale.vms, strat)
			})
		}
	}
	rows, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblPlacementResult{SLA: placementSLAUs, Rows: rows}, nil
}
