package experiments

import (
	"fmt"
	"io"
	"math"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/ibmon"
	"resex/internal/placement"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/simpar"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-geodiurnal: availability zones with phase-shifted diurnal load over
// the simpar backbone — the rebalancer chases the sun.
//
// Each zone is a single-host site in a replication ring (the abl-simpar
// topology), but its local trading app runs open loop, paced by a Diurnal
// arrival curve whose phase lags the previous zone's by 2π/zones: as
// virtual time advances, the peak walks around the ring like daylight. At
// every telemetry epoch the driver re-paces each zone's client from the
// curve's instantaneous rate and feeds the per-zone pressure vector to a
// placement.SunChaser, whose movable capacity units migrate toward the
// zones under peak — the migration-pressure counters in the table.
//
// Everything workload-identical is keyed by *slot*, the zone's diurnal
// identity: seeds, phases and SLAs follow the slot, while node ids and ring
// positions follow the physical zone index. A global phase shift (the shift
// parameter) rotates which physical zone hosts which slot; because the ring
// is rotation-symmetric, slot s's world is identical under any shift — the
// metamorphic test in geodiurnal_test.go pins that per-slot rows permute
// and the integer fleet totals (received, on-time) do not move. The shard
// axis is the usual simpar contract: byte-identical at any -simshards
// width.
// ---------------------------------------------------------------------------

// geoZones is the experiment's ring size.
const geoZones = 6

// geoMeanRate is each zone's cycle-averaged arrival rate (req/s); geoAmp is
// the diurnal swing around it. At peak a zone offers
// geoMeanRate·(1+geoAmp) 64 KB requests per second.
const (
	geoMeanRate = 1500.0
	geoAmp      = 0.6
)

// geoUnitsPerZone sizes the SunChaser's movable-capacity pool.
const geoUnitsPerZone = 2

// GeoZoneRow is one zone's (slot-keyed) outcome within a cell. Every field
// is either an integer counter or derived from integer counters, so the
// phase-shift metamorphic comparison is exact, not approximate.
type GeoZoneRow struct {
	// Shards is the cell's -simshards axis value; Slot is the zone's diurnal
	// identity (phase -2π·Slot/zones).
	Shards int
	Slot   int
	// Received and OnTime are the zone's local client counters over the
	// measured window; AttainPct = 100·OnTime/Received.
	Received  int64
	OnTime    int64
	AttainPct float64
	// Served and ReplServed are the zone's local and replication-ingest
	// server counters.
	Served     int64
	ReplServed int64
	// Units is how many SunChaser capacity units sit in the zone at the end.
	Units int
}

// AblGeoDiurnalRow is one (shards) cell's fleet summary.
type AblGeoDiurnalRow struct {
	Zones  int
	Shards int
	// Windows/Messages are the conservative coordinator's sync counts.
	Windows  uint64
	Messages uint64
	// Received/OnTime/AttainPct aggregate the local clients fleet-wide.
	Received  int64
	OnTime    int64
	AttainPct float64
	// Moves and Stays are the SunChaser's lifetime rebalance decisions —
	// the migration pressure the walking peak generates.
	Moves int64
	Stays int64
	// FP fingerprints every epoch's slot-ordered counters (hex FNV-1a).
	FP string
	// PerZone carries the cell's slot-keyed rows.
	PerZone []GeoZoneRow
}

// AblGeoDiurnalResult is the shard-count sweep at a fixed ring size.
type AblGeoDiurnalResult struct {
	Zones    int
	PeriodMs float64
	Cells    []AblGeoDiurnalRow
}

// Title implements Result.
func (r *AblGeoDiurnalResult) Title() string {
	return "GeoDiurnal: phase-shifted zones over the simpar backbone, sun-chasing rebalancer"
}

// WriteText implements Result.
func (r *AblGeoDiurnalResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "%s (%d zones, period %.1f ms)\n", r.Title(), r.Zones, r.PeriodMs)
	for _, c := range r.Cells {
		fmt.Fprintf(w, "\nshards=%d windows=%d msgs=%d received=%d ontime=%d attain=%.1f%% moves=%d stays=%d fp=%s\n",
			c.Shards, c.Windows, c.Messages, c.Received, c.OnTime, c.AttainPct, c.Moves, c.Stays, c.FP)
		fmt.Fprintf(w, "  %4s %9s %8s %8s %8s %9s %6s\n",
			"slot", "received", "ontime", "attain%", "served", "repl_srv", "units")
		for _, z := range c.PerZone {
			fmt.Fprintf(w, "  %4d %9d %8d %8.1f %8d %9d %6d\n",
				z.Slot, z.Received, z.OnTime, z.AttainPct, z.Served, z.ReplServed, z.Units)
		}
	}
	return nil
}

// WriteCSV implements Result.
func (r *AblGeoDiurnalResult) WriteCSV(w io.Writer) error {
	fmt.Fprintln(w, "shards,slot,received,ontime,attain_pct,served,repl_served,units,windows,messages,moves,stays,fleet_received,fleet_ontime,fp")
	for _, c := range r.Cells {
		for _, z := range c.PerZone {
			fmt.Fprintf(w, "%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
				c.Shards, z.Slot, z.Received, z.OnTime, z.AttainPct, z.Served, z.ReplServed, z.Units,
				c.Windows, c.Messages, c.Moves, c.Stays, c.Received, c.OnTime, c.FP)
		}
	}
	return nil
}

// geoZone is one availability zone: a single-host site (the simpar shape)
// whose local app is paced by a slot-keyed diurnal curve.
type geoZone struct {
	slot int
	tb   *cluster.Testbed
	host *cluster.Host
	h    *simpar.Host
	mgr  *resex.Manager
	mon  *ibmon.Monitor

	local   *cluster.App
	agent   *benchex.Agent
	diurnal workload.Diurnal

	replServer *benchex.Server
	replClient *benchex.Client
}

// GeoFleet is a built geo-diurnal ring. Exported for the metamorphic test.
type GeoFleet struct {
	Co     *simpar.Coordinator
	Ic     *simpar.Interconnect
	zones  []*geoZone // physical (ring) order
	slots  []*geoZone // slot order — the canonical iteration order
	chaser *placement.SunChaser

	period sim.Time
	epochD sim.Time
	epoch  uint64
	fp     uint64
}

// geoPeriod derives the compressed day length from the run window: two full
// cycles fit warmup+duration, so the peak walks the whole ring regardless
// of how short the CI window is.
func geoPeriod(o Options) sim.Time {
	p := (o.Warmup + o.Duration) / 2
	if p < 16 {
		p = 16
	}
	return p
}

// BuildGeoFleet assembles the ring. Zone z (node z+1, streaming replication
// to zone z+1 mod zones) hosts slot (z+shift) mod zones: the slot carries
// the diurnal phase, every seed, and the SLA, so shifting the phase
// globally only re-maps slots onto physical zones. Pacing starts at each
// curve's t=0 rate; boundary callbacks re-pace as the day advances.
func BuildGeoFleet(zones, shards, workers, shift int, seed int64, period sim.Time) (*GeoFleet, error) {
	own := placement.NewOwnership(nodesFor(zones), shards)
	co := simpar.New(simpar.Config{
		Lookahead: SimParBackbone,
		Shards:    own.Shards(),
		Workers:   workers,
		ShardOf:   own.ShardOf(),
	})
	f := &GeoFleet{
		Co: co, Ic: simpar.NewInterconnect(co, SimParBackbone),
		slots:  make([]*geoZone, zones),
		chaser: placement.NewSunChaser(zones, geoUnitsPerZone*zones),
		period: period, epochD: period / 16, fp: fnvOffset,
	}
	if f.epochD <= 0 {
		f.epochD = 1
	}

	for i := 0; i < zones; i++ {
		slot := (i + shift) % zones
		tb := cluster.New(cluster.Config{})
		host := tb.AddHost(i + 1)
		z := &geoZone{slot: slot, tb: tb, host: host, h: f.Ic.AddSite(tb, host)}
		z.diurnal = workload.Diurnal{
			MeanRate: geoMeanRate, Amplitude: geoAmp, Period: period,
			Phase: -2 * math.Pi * float64(slot) / float64(zones),
		}

		dom0 := host.Dom0VCPU()
		z.mon = ibmon.New(host.HV, dom0, ibmon.Config{})
		z.mgr = resex.New(tb.Eng, host.HV, z.mon, dom0, resex.NewFreeMarket(), resex.Config{})

		local, err := tb.NewApp(fmt.Sprintf("zone%d-local", slot), host, host,
			benchex.ServerConfig{BufferSize: BaseBuffer},
			benchex.ClientConfig{
				BufferSize: BaseBuffer, Window: 4,
				Interval:        sim.Time(float64(sim.Second) / z.diurnal.RateAt(0)),
				PoissonArrivals: true,
				SLAUs:           BaseSLAUs,
				Seed:            seed + int64(slot)*17 + 1,
			})
		if err != nil {
			return nil, err
		}
		z.local = local
		if _, err := z.mgr.Manage(local.ServerVM.Dom, local.Server.SendCQ(), BaseSLAUs); err != nil {
			return nil, err
		}
		z.agent = benchex.NewAgent(local.Server, local.ServerVM.Dom.ID(), z.mgr, benchex.AgentConfig{})
		f.zones = append(f.zones, z)
		f.slots[slot] = z
	}

	// Replication ring, as in abl-simpar; slot s always streams to slot
	// s+1 regardless of shift, so the ring too is slot-invariant. Seeds and
	// names key by the source slot.
	for i, src := range f.zones {
		dst := f.zones[(i+1)%zones]
		sVM := dst.host.NewVM(fmt.Sprintf("zone%d-repl-in", dst.slot))
		server := benchex.NewServer(dst.tb.Eng, sVM.VCPU, sVM.PD, benchex.ServerConfig{
			Name: fmt.Sprintf("zone%d-repl-srv", dst.slot), BufferSize: simParReplBuffer,
		})
		cVM := src.host.NewVM(fmt.Sprintf("zone%d-repl-out", src.slot))
		client, err := benchex.NewClient(src.tb.Eng, cVM.VCPU, cVM.PD, benchex.ClientConfig{
			Name: fmt.Sprintf("zone%d-repl-cli", src.slot), BufferSize: simParReplBuffer,
			Window: 4, Interval: 250 * sim.Microsecond, PoissonArrivals: true,
			Seed: seed + 7919*int64(src.slot+1),
		})
		if err != nil {
			return nil, err
		}
		sqp, err := server.NewEndpoint()
		if err != nil {
			return nil, err
		}
		if err := cluster.ConnectQPs(sqp, client.Endpoint(), dst.host, src.host); err != nil {
			return nil, err
		}
		if _, err := dst.mgr.Manage(sVM.Dom, server.SendCQ(), 0); err != nil {
			return nil, err
		}
		dst.replServer = server
		src.replClient = client
	}
	return f, nil
}

// start launches every zone and arms the global boundaries: the warmup
// stats reset, and the telemetry epoch that re-paces each zone from its
// curve, rebalances the chaser, and folds the slot-ordered counters into
// the fingerprint. Boundary callbacks run at coordinator barriers — every
// site engine is stopped — so cross-engine mutation (SetInterval, resets)
// is safe, exactly like abl-simpar's.
func (f *GeoFleet) start(o Options) {
	for _, z := range f.zones {
		z.local.Start()
		z.replServer.Start()
		z.replClient.Start()
		z.agent.Start()
		z.mon.Start(z.tb.Eng)
		z.mgr.Start()
	}
	f.Co.At(o.Warmup, func() {
		for _, z := range f.slots {
			z.local.Server.ResetStats()
			z.local.Client.ResetStats()
			z.replServer.ResetStats()
			z.replClient.ResetStats()
		}
	})
	pressure := make([]float64, len(f.slots))
	f.Co.Every(f.epochD, func() bool {
		f.epoch++
		t := sim.Time(f.epoch) * f.epochD
		f.fp = fnvMix(f.fp, f.epoch)
		for s, z := range f.slots {
			rate := z.diurnal.RateAt(t)
			pressure[s] = rate
			z.local.Client.SetInterval(sim.Time(float64(sim.Second) / rate))
		}
		f.chaser.Rebalance(pressure)
		for _, z := range f.slots {
			f.fp = fnvMix(f.fp, uint64(z.local.Server.Stats().Served))
			f.fp = fnvMix(f.fp, uint64(z.local.Client.Stats().Received))
			f.fp = fnvMix(f.fp, uint64(z.local.Client.Stats().OnTime))
			f.fp = fnvMix(f.fp, uint64(z.replServer.Stats().Served))
		}
		for _, n := range f.chaser.ZoneCounts() {
			f.fp = fnvMix(f.fp, uint64(n))
		}
		return true
	})
}

// Row extracts the cell summary and the slot-keyed zone rows.
func (f *GeoFleet) Row(shards int) AblGeoDiurnalRow {
	st := f.Co.Stats()
	row := AblGeoDiurnalRow{
		Zones: len(f.slots), Shards: shards,
		Windows: st.Windows, Messages: st.Messages,
		Moves: f.chaser.Moves(), Stays: f.chaser.Stays(),
	}
	counts := f.chaser.ZoneCounts()
	for s, z := range f.slots {
		cs := z.local.Client.Stats()
		zr := GeoZoneRow{
			Shards: shards, Slot: s,
			Received: cs.Received, OnTime: cs.OnTime,
			Served:     z.local.Server.Stats().Served,
			ReplServed: z.replServer.Stats().Served,
			Units:      counts[s],
		}
		if zr.Received > 0 {
			zr.AttainPct = 100 * float64(zr.OnTime) / float64(zr.Received)
		}
		row.Received += zr.Received
		row.OnTime += zr.OnTime
		row.PerZone = append(row.PerZone, zr)
	}
	if row.Received > 0 {
		row.AttainPct = 100 * float64(row.OnTime) / float64(row.Received)
	}
	fp := f.fp
	fp = fnvMix(fp, uint64(row.Received))
	fp = fnvMix(fp, uint64(row.OnTime))
	fp = fnvMix(fp, row.Messages)
	row.FP = fmt.Sprintf("%016x", fp)
	return row
}

// RunGeoDiurnalCell builds and runs one (zones, shards, shift) cell.
// Exported so the phase-shift metamorphic test can compare cells directly.
func RunGeoDiurnalCell(o Options, zones, shards, shift int) (AblGeoDiurnalRow, error) {
	f, err := BuildGeoFleet(zones, shards, o.SimShards, shift, o.Seed, geoPeriod(o))
	if err != nil {
		return AblGeoDiurnalRow{}, err
	}
	var stops []func()
	for _, z := range f.zones {
		stops = append(stops, o.observe(z.tb.Eng, &snapshot.Source{
			TB: z.tb, Managers: []*resex.Manager{z.mgr},
			Monitors: []*ibmon.Monitor{z.mon}, SimPar: z.h,
		}))
	}
	f.start(o)
	f.Co.RunUntil(o.Warmup + o.Duration)
	for _, stop := range stops {
		stop()
	}
	f.Co.Shutdown()
	return f.Row(shards), nil
}

// AblGeoDiurnal sweeps the -simshards axis at the fixed six-zone ring,
// shift 0. As with abl-simpar, every column but the shards one must be
// byte-identical down the table; the CI determinism gate additionally diffs
// whole runs at -simshards 1 vs 8.
func AblGeoDiurnal(o Options) (*AblGeoDiurnalResult, error) {
	o = o.WithDefaults()
	var points []SweepPoint[AblGeoDiurnalRow]
	for _, shards := range simParShardAxis {
		shards := shards
		points = append(points, Point(fmt.Sprintf("s=%d", shards),
			func(o Options) (AblGeoDiurnalRow, error) {
				return RunGeoDiurnalCell(o, geoZones, shards, 0)
			}))
	}
	cells, err := RunSweep(o, points)
	if err != nil {
		return nil, err
	}
	return &AblGeoDiurnalResult{
		Zones:    geoZones,
		PeriodMs: float64(geoPeriod(o)) / 1e6,
		Cells:    cells,
	}, nil
}
