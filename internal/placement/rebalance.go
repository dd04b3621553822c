package placement

import (
	"errors"

	"resex/internal/schedshard"
	"resex/internal/sim"
)

// The rebalancer's fixed thresholds.
const (
	// CapFloorPct: an interferer whose CPU cap is at or below this is
	// considered fully throttled; if the victim still breaches, the only
	// remedy left is moving someone.
	CapFloorPct = 5.0
	// MaxRetryBackoffs caps the abort backoff at this many RetryBackoffs.
	MaxRetryBackoffs = 8
	// breachPatience is how many consecutive breached epochs a
	// latency-sensitive VM must accumulate before the rebalancer acts —
	// throttling gets that long to fix the problem in place.
	breachPatience = 2
)

// RebalanceConfig parameterizes the rebalancer loop.
type RebalanceConfig struct {
	// MaxMigrations bounds total migrations (safety valve against
	// thrashing). Default 8.
	MaxMigrations int
	// Migration is the cost model for the moves.
	Migration MigrationConfig
	// RetryBackoff is the pause before re-attempting a placement whose
	// migration aborted, doubled per consecutive failure up to
	// MaxRetryBackoffs×RetryBackoff. Zero keeps the naive behavior: the
	// very next pass may retry immediately, even into the same failure
	// window.
	RetryBackoff sim.Time
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 8
	}
	return c
}

// Rebalancer is the fleet's reactive loop: every epoch it reads the
// breach counters the per-host ResEx epoch summaries feed (Fleet.onEpoch)
// and live-migrates either the interferer or the victim when a host's
// pricing policy has run out of throttle.
type Rebalancer struct {
	f       *Fleet
	cfg     RebalanceConfig
	pipe    schedshard.Pipeline
	running bool
}

// NewRebalancer creates a rebalancer that picks migration targets with the
// interference-aware pipeline.
func NewRebalancer(f *Fleet, cfg RebalanceConfig) *Rebalancer {
	return &Rebalancer{f: f, cfg: cfg.withDefaults(), pipe: schedshard.NewInterferencePipeline()}
}

// Start launches the periodic pass.
func (r *Rebalancer) Start() {
	if r.running {
		return
	}
	r.running = true
	r.f.TB.Eng.Go("rebalancer", func(p *sim.Proc) {
		period := r.f.EpochDuration()
		for {
			p.Sleep(period)
			r.pass(p)
		}
	})
}

// pass inspects the fleet and performs at most one migration. Placement
// order makes every choice deterministic.
func (r *Rebalancer) pass(p *sim.Proc) {
	f := r.f
	if len(f.Log.Migrations) >= r.cfg.MaxMigrations {
		return
	}

	// Victim: the latency-sensitive VM breached longest past patience,
	// worst current elevation first.
	var victim *Placement
	for _, pl := range f.placements {
		if !pl.Spec.LatencySensitive || pl.intfEpochs < breachPatience {
			continue
		}
		if victim == nil || pl.lastIntf > victim.lastIntf {
			victim = pl
		}
	}
	if victim == nil {
		return
	}
	srcIdx := victim.HostIdx
	src := f.Workers[srcIdx]

	// Interferer on the victim's host: the hardest-driving large-buffer
	// bulk VM, by IBMon profile.
	var intf *Placement
	var intfRate float64
	for _, pl := range f.placements {
		if pl.HostIdx != srcIdx || pl.Spec.LatencySensitive {
			continue
		}
		if pl.Spec.BufferSize < schedshard.LargeBuffer {
			continue
		}
		rate := 0.0
		if prof, ok := f.Mons[srcIdx].ProfileOf(pl.App.ServerVM.Dom.ID()); ok {
			rate = prof.BytesPerSec
		}
		if intf == nil || rate > intfRate {
			intf, intfRate = pl, rate
		}
	}

	now := f.TB.Eng.Now()
	mover := victim
	if intf != nil {
		if intf.lastCap > CapFloorPct && victim.intfEpochs < 2*breachPatience {
			// The host policy still has throttle headroom; give it until
			// 2×breachPatience epochs before forcing a move anyway (a
			// policy like FreeMarket may never throttle on latency at all).
			f.Log.Add(f.TB.Eng.Now(), "rebalance",
				"%s breached %d epochs; waiting for node%d to throttle %s (cap %.0f%%)",
				victim.Spec.Name, victim.intfEpochs, src.Node, intf.Spec.Name, intf.lastCap)
			return
		}
		mover = intf
	}
	if now < mover.retryAt {
		// A recent pre-copy abort put this placement in backoff; retrying
		// immediately would likely hit the same failure window.
		return
	}

	// Score every host as if the mover were not placed yet (the store's
	// refreshed snapshot with the mover elided); migrate only to a strictly
	// better home — when its current host wins (or ties), moving would be
	// churn, not improvement.
	target, err := r.pipe.Pick(f.whatIf(mover), mover.Spec)
	if err != nil {
		f.Log.Add(f.TB.Eng.Now(), "rebalance", "%s needs to move off node%d but %v",
			mover.Spec.Name, src.Node, err)
		return
	}
	if target.Node == src.Node {
		f.Log.Add(f.TB.Eng.Now(), "rebalance",
			"%s stays on node%d (no strictly better host)", mover.Spec.Name, src.Node)
		return
	}
	f.Log.Add(f.TB.Eng.Now(), "rebalance",
		"victim %s (intf %.0f%% for %d epochs) -> migrating %s node%d->node%d",
		victim.Spec.Name, victim.lastIntf, victim.intfEpochs,
		mover.Spec.Name, src.Node, target.Node)
	if !r.migrate(p, mover, target.Node) {
		return
	}
	// Give the fabric a fresh observation window before judging again.
	victim.intfEpochs = 0
}

// migrate performs one move with abort backoff; reports success.
func (r *Rebalancer) migrate(p *sim.Proc, mover *Placement, targetNode int) bool {
	f := r.f
	if _, err := f.Migrate(p, mover, f.Workers[f.workerIdx(targetNode)], r.cfg.Migration); err != nil {
		if errors.Is(err, ErrPreCopyAborted) && r.cfg.RetryBackoff > 0 {
			mover.migFailures++
			backoff := r.cfg.RetryBackoff << (mover.migFailures - 1)
			if max := MaxRetryBackoffs * r.cfg.RetryBackoff; backoff > max {
				backoff = max
			}
			mover.retryAt = f.TB.Eng.Now() + backoff
			f.Log.Add(f.TB.Eng.Now(), "rebalance",
				"migration of %s aborted (failure %d); retry backoff %v",
				mover.Spec.Name, mover.migFailures, backoff)
			return false
		}
		f.Log.Add(f.TB.Eng.Now(), "rebalance", "migration of %s failed: %v", mover.Spec.Name, err)
		return false
	}
	mover.migFailures, mover.retryAt = 0, 0
	return true
}
