package experiments

import (
	"fmt"
	"io"
	"math"

	"resex/internal/benchex"
	"resex/internal/placement"
	"resex/internal/sim"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-geodiurnal: availability zones with phase-shifted diurnal load over
// the simpar backbone — the rebalancer chases the sun.
//
// Each zone is a single-host site of abl-simpar's geo ring (buildGeoRing),
// but its local trading app runs open loop, paced by a diurnal arrival
// curve (geoCurve) whose phase lags the previous zone's by 2π/zones: as
// virtual time advances, the peak walks around the ring like daylight. At every
// telemetry epoch the driver re-paces each zone's client from the curve's
// instantaneous rate and feeds the per-zone pressure vector to a
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
// axis is the usual simpar contract: byte-identical at any worker width.
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

// geoCurve is one slot's diurnal arrival curve, a compressed day/night
// cycle: the rate at t is geoMeanRate·(1 + geoAmp·sin(2πt/period + phase)).
type geoCurve struct {
	period sim.Time
	phase  float64 // radians; 0 starts at the mean, rising
}

// rateAt returns the curve's instantaneous arrival rate (req/s) at t.
func (c geoCurve) rateAt(t sim.Time) float64 {
	return geoMeanRate * (1 + geoAmp*math.Sin(2*math.Pi*float64(t)/float64(c.period)+c.phase))
}

// geoUnitsPerZone sizes the SunChaser's movable-capacity pool.
const geoUnitsPerZone = 2

// GeoZoneRow is one zone's (slot-keyed) outcome within a cell. Every field
// is either an integer counter or derived from integer counters, so the
// phase-shift metamorphic comparison is exact, not approximate.
type GeoZoneRow struct {
	// Shards is the cell's logical shard count; Slot is the zone's diurnal
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
	ew := &errWriter{w: w}
	ew.printf("%s (%d zones, period %.1f ms)\n", r.Title(), r.Zones, r.PeriodMs)
	for _, c := range r.Cells {
		ew.printf("\nshards=%d windows=%d msgs=%d received=%d ontime=%d attain=%.1f%% moves=%d stays=%d fp=%s\n",
			c.Shards, c.Windows, c.Messages, c.Received, c.OnTime, c.AttainPct, c.Moves, c.Stays, c.FP)
		ew.printf("  %4s %9s %8s %8s %8s %9s %6s\n",
			"slot", "received", "ontime", "attain%", "served", "repl_srv", "units")
		for _, z := range c.PerZone {
			ew.printf("  %4d %9d %8d %8.1f %8d %9d %6d\n",
				z.Slot, z.Received, z.OnTime, z.AttainPct, z.Served, z.ReplServed, z.Units)
		}
	}
	return ew.err
}

// WriteCSV implements Result.
func (r *AblGeoDiurnalResult) WriteCSV(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("shards,slot,received,ontime,attain_pct,served,repl_served,units,windows,messages,moves,stays,fleet_received,fleet_ontime,fp\n")
	for _, c := range r.Cells {
		for _, z := range c.PerZone {
			ew.printf("%d,%d,%d,%d,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
				c.Shards, z.Slot, z.Received, z.OnTime, z.AttainPct, z.Served, z.ReplServed, z.Units,
				c.Windows, c.Messages, c.Moves, c.Stays, c.Received, c.OnTime, c.FP)
		}
	}
	return ew.err
}

// GeoFleet is a built geo-diurnal ring: abl-simpar's geo ring keyed by slot,
// with a diurnal curve per slot and the sun chaser.
type GeoFleet struct {
	*geoRing
	slots   []*geoSite         // slot order — the canonical iteration order
	diurnal []geoCurve         // by slot
	pace    []*benchex.Poisson // by slot: each zone's local arrivals
	chaser  *placement.SunChaser

	epoch uint64
	fp    uint64
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
// globally only re-maps slots onto physical zones — slot s always streams
// to slot s+1, so the ring too is slot-invariant. Pacing starts at each
// curve's t=0 rate; the telemetry epoch re-paces each zone from its curve
// as the day advances, rebalances the chaser, and folds the slot-ordered
// counters into the fingerprint.
func BuildGeoFleet(zones, shards, workers, shift int, seed int64, period sim.Time) (*GeoFleet, error) {
	f := &GeoFleet{
		slots:   make([]*geoSite, zones),
		diurnal: make([]geoCurve, zones),
		pace:    make([]*benchex.Poisson, zones),
		chaser:  placement.NewSunChaser(zones, geoUnitsPerZone*zones),
		fp:      fnvOffset,
	}
	specs := make([]geoSiteSpec, zones)
	for i := range specs {
		slot := (i + shift) % zones
		d := geoCurve{period: period, phase: -2 * math.Pi * float64(slot) / float64(zones)}
		f.diurnal[slot] = d
		f.pace[slot] = &benchex.Poisson{Rate: d.rateAt(0)}
		specs[i] = geoSiteSpec{
			name: fmt.Sprintf("zone%d", slot),
			local: benchex.ClientConfig{
				BufferSize: BaseBuffer, Window: 4,
				Arrivals: f.pace[slot],
				SLAUs:    workload.BaseSLAUs,
				Seed:     seed + int64(slot)*17 + 1,
			},
			replSeed: seed + 7919*int64(slot+1),
		}
	}
	r, err := buildGeoRing(specs, shards, workers)
	if err != nil {
		return nil, err
	}
	f.geoRing = r
	for i, s := range r.sites {
		f.slots[(i+shift)%zones] = s
	}
	r.tickEvery = max(period/16, 1)
	pressure := make([]float64, zones)
	r.tick = func() {
		f.epoch++
		t := sim.Time(f.epoch) * r.tickEvery
		f.fp = fnvMix(f.fp, f.epoch)
		for s := range f.slots {
			rate := f.diurnal[s].rateAt(t)
			pressure[s] = rate
			f.pace[s].Rate = rate
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
	}
	return f, nil
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
	f.Run(o)
	return f.Row(shards), nil
}

// AblGeoDiurnal sweeps the logical shard count at the fixed six-zone ring,
// shift 0. As with abl-simpar, every column but the shards one must be
// byte-identical down the table; the CI determinism gate additionally diffs
// whole runs at -parallel 1 vs 8.
func AblGeoDiurnal(o Options) (*AblGeoDiurnalResult, error) {
	o = o.WithDefaults()
	var points []func(Options) (AblGeoDiurnalRow, error)
	for _, shards := range simParShardAxis {
		points = append(points, func(o Options) (AblGeoDiurnalRow, error) {
			return RunGeoDiurnalCell(o, geoZones, shards, 0)
		})
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
