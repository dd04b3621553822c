package benchex_test

import (
	"math"
	"strings"
	"testing"

	"resex/internal/benchex"
	"resex/internal/cluster"
	"resex/internal/sim"
)

func TestDrawGapKeepsMeanInterval(t *testing.T) {
	// Paced gaps are the interval itself. Poisson gaps are exponential with
	// mean 1/Rate, and the bursty H2 mix keeps its mean too:
	// 0.15·4m + 0.85·(0.4/0.85)m = m.
	const m = 100 * sim.Microsecond
	cases := []struct {
		name string
		p    benchex.ArrivalProcess
	}{
		{"paced", benchex.Paced{Every: m}},
		{"poisson", benchex.Poisson{Rate: 1 / m.Seconds()}},
		{"bursty", benchex.Bursty{Mean: m}},
	}
	for _, c := range cases {
		rng := sim.NewRand(3)
		const n = 200000
		var sum sim.Time
		for i := 0; i < n; i++ {
			g := c.p.Gap(rng)
			if g <= 0 {
				t.Fatalf("%s: non-positive gap %v", c.name, g)
			}
			sum += g
		}
		mean := float64(sum) / n
		if rel := math.Abs(mean-float64(m)) / float64(m); rel > 0.02 {
			t.Errorf("%s: mean gap %.0f ns, want %d ns within 2%%", c.name, mean, m)
		}
		if c.name == "paced" && rng.Draws() != 0 {
			t.Errorf("paced: %d rng draws, want none", rng.Draws())
		}
	}
}

func TestArrivalProcessRates(t *testing.T) {
	// Each process's declared rate is its long-run mean. MMPP2's is
	// dwell-weighted, (1000·30 + 8000·10)/40 = 2750.
	const m = 100 * sim.Microsecond
	mmpp := &benchex.MMPP2{CalmRate: 1000, BurstRate: 8000, CalmDwell: 30 * sim.Millisecond, BurstDwell: 10 * sim.Millisecond}
	cases := []struct {
		p    benchex.ArrivalProcess
		want float64
	}{
		{benchex.Paced{Every: m}, 10000},
		{benchex.Poisson{Rate: 5000}, 5000},
		{benchex.Bursty{Mean: m}, 10000},
		{mmpp, 2750},
	}
	for _, c := range cases {
		if got := c.p.RatePerSec(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%T: RatePerSec = %g, want %g", c.p, got, c.want)
		}
	}
	rng := sim.NewRand(42)
	const n = 200000
	var total sim.Time
	for i := 0; i < n; i++ {
		g := mmpp.Gap(rng)
		if g <= 0 {
			t.Fatalf("MMPP2: non-positive gap %v", g)
		}
		total += g
	}
	if emp := n / total.Seconds(); math.Abs(emp-2750)/2750 > 0.05 {
		t.Errorf("MMPP2: empirical rate %.0f/s, want within 5%% of 2750", emp)
	}
}

func TestNewClientRejectsNonPositiveRate(t *testing.T) {
	tb := cluster.New(cluster.Config{})
	defer tb.Eng.Shutdown()
	vm := tb.AddHost(1).NewVM("client-vm")
	for _, p := range []benchex.ArrivalProcess{
		benchex.Poisson{Rate: 0},
		benchex.Poisson{Rate: -5},
		benchex.Poisson{Rate: math.NaN()},
		benchex.Paced{Every: -sim.Microsecond},
		&benchex.MMPP2{},
	} {
		_, err := benchex.NewClient(tb.Eng, vm.VCPU, vm.PD, benchex.ClientConfig{Arrivals: p})
		if err == nil || !strings.Contains(err.Error(), "non-positive rate") {
			t.Errorf("%#v: NewClient error %v, want a non-positive rate", p, err)
		}
	}
}
