package benchex

import "resex/internal/sim"

// ArrivalProcess generates open-loop interarrival gaps, for a BenchEx
// client (ClientConfig.Arrivals) and a traffic-engine tenant alike.
// Arrivals happen whether or not the system keeps up — that independence is
// what makes offered load a real axis (a closed loop self-throttles under
// saturation; an open loop queues).
//
// Implementations draw all randomness from the rng they are handed (the
// client's or tenant's private seeded stream), so runs are deterministic per
// seed.
type ArrivalProcess interface {
	// Gap draws the gap to the next arrival.
	Gap(rng *sim.Rand) sim.Time
	// RatePerSec is the long-run mean arrival rate. Clients and tenants
	// refuse a process whose rate is not positive.
	RatePerSec() float64
}

// Paced issues one arrival every Every: a fixed-rate open loop that draws
// nothing from the rng.
type Paced struct {
	Every sim.Time
}

// Gap implements ArrivalProcess.
func (p Paced) Gap(*sim.Rand) sim.Time { return p.Every }

// RatePerSec implements ArrivalProcess.
func (p Paced) RatePerSec() float64 { return float64(sim.Second) / float64(p.Every) }

// Bursty draws hyperexponential (H2) gaps with mean Mean: 15% of gaps are
// long, at 4× the mean, and the remaining 85% at 0.4/0.85 ≈ 0.47× of it, so
// the overall mean stays Mean. Bursts saturate the link while long gaps let
// a victim run at base latency — the bimodal spread of Figure 1.
type Bursty struct {
	Mean sim.Time
}

// Gap implements ArrivalProcess.
func (b Bursty) Gap(rng *sim.Rand) sim.Time {
	if rng.Float64() < 0.15 {
		return rng.ExpDuration(4 * b.Mean)
	}
	return rng.ExpDuration(sim.Time(float64(b.Mean) * 0.4 / 0.85))
}

// RatePerSec implements ArrivalProcess.
func (b Bursty) RatePerSec() float64 { return float64(sim.Second) / float64(b.Mean) }

// Poisson issues memoryless arrivals at Rate per second — the canonical
// open-loop model for many independent users. Gap reads Rate on every draw,
// so a driver holding a *Poisson re-paces its client by writing Rate (from
// the client's own engine, never from another goroutine).
type Poisson struct {
	Rate float64 // arrivals per second
}

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
// MMPP2 carries phase state between draws; give each client or tenant its
// own instance (pass a pointer).
type MMPP2 struct {
	// CalmRate and BurstRate are the per-phase arrival rates (arrivals/s).
	CalmRate, BurstRate float64
	// CalmDwell and BurstDwell are the mean phase durations.
	CalmDwell, BurstDwell sim.Time

	burst     bool
	dwellLeft sim.Time
	started   bool
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
