package benchex

import (
	"math"
	"testing"

	"resex/internal/sim"
)

func TestDrawGapKeepsMeanInterval(t *testing.T) {
	// Paced gaps are the interval itself. Poisson gaps are exponential with
	// mean Interval, and the bursty H2 mix keeps that mean too:
	// 0.15·4m + 0.85·(0.4/0.85)m = m.
	const m = 100 * sim.Microsecond
	cases := []struct {
		name string
		cfg  ClientConfig
	}{
		{"paced", ClientConfig{Interval: m}},
		{"poisson", ClientConfig{Interval: m, PoissonArrivals: true}},
		{"bursty", ClientConfig{Interval: m, BurstyArrivals: true}},
		{"bursty-overrides-poisson", ClientConfig{Interval: m, PoissonArrivals: true, BurstyArrivals: true}},
	}
	for _, c := range cases {
		cl := &Client{cfg: c.cfg, rng: sim.NewRand(3)}
		const n = 200000
		var sum sim.Time
		for i := 0; i < n; i++ {
			sum += cl.drawGap()
		}
		mean := float64(sum) / n
		if rel := math.Abs(mean-float64(m)) / float64(m); rel > 0.02 {
			t.Errorf("%s: mean gap %.0f ns, want %d ns within 2%%", c.name, mean, m)
		}
	}
}

func TestSetIntervalIgnoresNonPositive(t *testing.T) {
	c := &Client{cfg: ClientConfig{Interval: 50 * sim.Microsecond}}
	for _, d := range []sim.Time{0, -sim.Microsecond} {
		c.SetInterval(d)
		if c.cfg.Interval != 50*sim.Microsecond {
			t.Fatalf("SetInterval(%v) changed the interval to %v", d, c.cfg.Interval)
		}
	}
	c.SetInterval(20 * sim.Microsecond)
	if c.cfg.Interval != 20*sim.Microsecond {
		t.Errorf("SetInterval(20µs) left the interval at %v", c.cfg.Interval)
	}
}
