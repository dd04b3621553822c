package workload

import (
	"fmt"

	"resex/internal/sim"
)

// ArrivalProcess generates a tenant's open-loop interarrival gaps. Arrivals
// happen whether or not the system keeps up — that independence is what
// makes offered load a real axis (a closed loop self-throttles under
// saturation; an open loop queues).
//
// Implementations draw all randomness from the rng they are handed (the
// tenant's private seeded stream), so runs are deterministic per seed.
type ArrivalProcess interface {
	// Name identifies the process in reports.
	Name() string
	// Gap draws the gap to the next arrival.
	Gap(rng *sim.Rand) sim.Time
	// RatePerSec is the long-run mean arrival rate, for offered-load
	// reporting and validation.
	RatePerSec() float64
}

// Poisson issues memoryless arrivals at Rate per second — the canonical
// open-loop model for many independent users.
type Poisson struct {
	Rate float64 // arrivals per second
}

// Name implements ArrivalProcess.
func (p Poisson) Name() string { return "poisson" }

// Gap implements ArrivalProcess.
func (p Poisson) Gap(rng *sim.Rand) sim.Time {
	return rng.ExpDuration(sim.Time(float64(sim.Second) / p.Rate))
}

// RatePerSec implements ArrivalProcess.
func (p Poisson) RatePerSec() float64 { return p.Rate }

// MMPP2 is a two-state Markov-modulated Poisson process: the arrival rate
// switches between a calm and a burst phase with exponentially distributed
// dwell times. The mean rate stays fixed while variance — and therefore tail
// latency — scales with the burst-to-calm ratio, which is exactly the knob
// the burstiness ablation sweeps.
//
// MMPP2 carries phase state between draws; give each tenant its own
// instance (pass a pointer).
type MMPP2 struct {
	// CalmRate and BurstRate are the per-phase arrival rates (arrivals/s).
	CalmRate, BurstRate float64
	// CalmDwell and BurstDwell are the mean phase durations.
	CalmDwell, BurstDwell sim.Time

	burst     bool
	dwellLeft sim.Time
	started   bool
}

// Name implements ArrivalProcess.
func (m *MMPP2) Name() string {
	return fmt.Sprintf("mmpp2(%g/%g)", m.CalmRate, m.BurstRate)
}

// Gap implements ArrivalProcess. Because both the interarrival and dwell
// distributions are memoryless, redrawing the arrival clock at each phase
// flip is exact, not an approximation.
func (m *MMPP2) Gap(rng *sim.Rand) sim.Time {
	if !m.started {
		m.started = true
		m.burst = false
		m.dwellLeft = rng.ExpDuration(m.CalmDwell)
	}
	var gap sim.Time
	for {
		rate := m.CalmRate
		if m.burst {
			rate = m.BurstRate
		}
		g := rng.ExpDuration(sim.Time(float64(sim.Second) / rate))
		if g <= m.dwellLeft {
			m.dwellLeft -= g
			return gap + g
		}
		// The phase flips before this arrival would land: consume the
		// remaining dwell and restart the draw in the new phase.
		gap += m.dwellLeft
		m.burst = !m.burst
		dwell := m.CalmDwell
		if m.burst {
			dwell = m.BurstDwell
		}
		m.dwellLeft = rng.ExpDuration(dwell)
	}
}

// RatePerSec implements ArrivalProcess: the dwell-weighted mean rate.
func (m *MMPP2) RatePerSec() float64 {
	total := float64(m.CalmDwell + m.BurstDwell)
	if total <= 0 {
		return 0
	}
	return (m.CalmRate*float64(m.CalmDwell) + m.BurstRate*float64(m.BurstDwell)) / total
}
