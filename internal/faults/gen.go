package faults

import (
	"resex/internal/sim"
)

// The shape of one generated storm.
const (
	// DegradeFactor is the bandwidth multiplier during a storm's link
	// degradation.
	DegradeFactor = 0.45
	// DegradeDuration is the degraded window per storm.
	DegradeDuration = 100 * sim.Millisecond
	// BlackoutLead starts the telemetry blackout before the degrade so the
	// stale-evidence window covers the whole latency excursion.
	// BlackoutTail extends it past the degrade end so elevation drains
	// before fresh evidence returns.
	BlackoutLead = 5 * sim.Millisecond
	BlackoutTail = 60 * sim.Millisecond
	// StallDuration is the length of a storm's HCAStall.
	StallDuration = 2 * sim.Millisecond
	// FlapDuration is the length of a storm's full link flap.
	FlapDuration = 2 * sim.Millisecond
)

// GenConfig parameterizes the deterministic storm generator.
type GenConfig struct {
	// Hosts are the node ids faults may target (must be attached before
	// arming the generated schedule).
	Hosts []int
	// Start and Horizon bound the storms: every event begins in
	// [Start, Horizon) (restores may land later).
	Start, Horizon sim.Time
	// StormsPerSec is the fault intensity: the mean rate of storms across
	// the whole fleet (exponential inter-arrivals).
	StormsPerSec float64
	// StallEvery adds an HCAStall to every Nth storm (0 disables).
	// Default 3.
	StallEvery int
	// InvalidateEvery adds a MapInvalidate (all watched domains) to every
	// Nth storm (0 disables). Default 4.
	InvalidateEvery int
	// FlapEvery turns every Nth storm's degrade into a short full flap at
	// the degrade midpoint (0 disables). Default 0.
	FlapEvery int
	// MigrateFailEvery covers every Nth storm with a MigrationFail window
	// (0 disables). Default 2.
	MigrateFailEvery int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.StallEvery == 0 {
		c.StallEvery = 3
	}
	if c.InvalidateEvery == 0 {
		c.InvalidateEvery = 4
	}
	if c.MigrateFailEvery == 0 {
		c.MigrateFailEvery = 2
	}
	return c
}

// Generate builds a correlated fault storm schedule from a seed: the same
// (seed, config) pair always yields the identical schedule. Each storm picks
// one host and stacks a telemetry blackout over a link degradation — the
// adversarial case for an introspection-driven resource manager, because the
// victim's latency genuinely rises exactly while the evidence for *why* goes
// stale — with periodic HCA stalls, mapping invalidations, link flaps and
// migration-failure windows layered per the config.
func Generate(seed int64, cfg GenConfig) Schedule {
	cfg = cfg.withDefaults()
	var s Schedule
	if len(cfg.Hosts) == 0 || cfg.StormsPerSec <= 0 || cfg.Horizon <= cfg.Start {
		return s
	}
	rng := sim.NewRand(seed)
	gap := sim.Time(float64(sim.Second) / cfg.StormsPerSec)
	storm := 0
	for t := cfg.Start + rng.ExpDuration(gap); t < cfg.Horizon; t += rng.ExpDuration(gap) {
		storm++
		host := cfg.Hosts[rng.Intn(len(cfg.Hosts))]
		lead := t - BlackoutLead
		if lead < cfg.Start {
			lead = cfg.Start // never schedule before the window opens
		}
		s.Add(Event{
			At: lead, Kind: TelemetryBlackout, Host: host,
			Duration: t - lead + DegradeDuration + BlackoutTail,
		})
		s.Add(Event{
			At: t, Kind: LinkDegrade, Host: host,
			Duration: DegradeDuration, Factor: DegradeFactor,
		})
		if cfg.StallEvery > 0 && storm%cfg.StallEvery == 0 {
			s.Add(Event{At: t, Kind: HCAStall, Host: host, Duration: StallDuration})
		}
		if cfg.InvalidateEvery > 0 && storm%cfg.InvalidateEvery == 0 {
			s.Add(Event{
				At: t + DegradeDuration/4, Kind: MapInvalidate, Host: host,
				Duration: DegradeDuration / 2,
			})
		}
		if cfg.FlapEvery > 0 && storm%cfg.FlapEvery == 0 {
			s.Add(Event{
				At: t + DegradeDuration/2, Kind: LinkFlap, Host: host,
				Duration: FlapDuration,
			})
		}
		if cfg.MigrateFailEvery > 0 && storm%cfg.MigrateFailEvery == 0 {
			s.Add(Event{
				At: lead, Kind: MigrationFail, Host: host,
				Duration: t - lead + DegradeDuration + BlackoutTail,
			})
		}
	}
	return s
}
