package workload

import (
	"fmt"
	"math"
	"testing"

	"resex/internal/benchex"
	"resex/internal/resex"
	"resex/internal/sim"
)

func TestArrivalProcessRates(t *testing.T) {
	// The open-loop tenant classes draw arrivals at their declared rates:
	// OpenTenant's Poisson at the rate asked for, BulkTenant's MMPP2 at the
	// dwell-weighted mean (150·40 + 800·10)/50 = 280 req/s.
	cases := []struct {
		spec TenantSpec
		want float64
	}{
		{OpenTenant("open", 5000, 1), 5000},
		{BulkTenant("bulk", 1), 280},
	}
	for _, c := range cases {
		p := c.spec.Arrivals
		if got := p.RatePerSec(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: RatePerSec = %g, want %g", c.spec.Name, got, c.want)
		}
		rng := sim.NewRand(42)
		const n = 200000
		var total sim.Time
		for i := 0; i < n; i++ {
			g := p.Gap(rng)
			if g <= 0 {
				t.Fatalf("%s: non-positive gap %v", c.spec.Name, g)
			}
			total += g
		}
		if emp := n / total.Seconds(); math.Abs(emp-c.want)/c.want > 0.05 {
			t.Errorf("%s: empirical rate %.0f/s, want within 5%% of %g", c.spec.Name, emp, c.want)
		}
	}
}

func TestSLOTrackerWindows(t *testing.T) {
	tr := newSLOTracker(SLOSpec{P99Us: 100, Window: 10 * sim.Millisecond}.withDefaults())
	w := 10 * sim.Millisecond

	// Window 1: all fast — attained.
	for i := 0; i < 100; i++ {
		tr.observe(50)
	}
	tr.endWindow(w, 0, false)
	// Window 2: tail blows the target — violated.
	for i := 0; i < 99; i++ {
		tr.observe(50)
	}
	for i := 0; i < 5; i++ {
		tr.observe(500)
	}
	tr.endWindow(2*w, 0, false)
	// Window 3: nothing completed, oldest waiting request far past the
	// bound — stall, violated.
	tr.endWindow(3*w, 2*w, true)
	// Window 4: nothing completed, nothing waiting — idle, attained.
	tr.endWindow(4*w, 0, false)

	if got := tr.attainment(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("attainment = %g, want 50 (2 of 4 windows)", got)
	}
	tr.reset(4 * w)
	if got := tr.attainment(); got != 100 {
		t.Fatalf("attainment after reset = %g, want 100", got)
	}
}

func TestAdmissionPolicies(t *testing.T) {
	if !admits(0, 1<<12) {
		t.Error("QueueCap 0 shed an arrival")
	}
	if !admits(4, 3) || admits(4, 4) {
		t.Error("QueueCap boundary wrong")
	}
}

// runPair boots a two-tenant engine, runs it measured, and returns stats.
func runPair(policy func() resex.Policy, seed int64) [2]TenantStats {
	e := New(Config{Hosts: 1, ClientPCPUs: 8, Policy: policy})
	for i := 0; i < 2; i++ {
		_, err := e.AddTenant(TenantSpec{
			Name:     fmt.Sprintf("t%d", i),
			Arrivals: benchex.Poisson{Rate: 1500},
			Window:   8,
			SLO:      SLOSpec{P99Us: 960},
			Seed:     seed + int64(i),
		})
		if err != nil {
			panic(err)
		}
	}
	e.RunMeasured(50*sim.Millisecond, 300*sim.Millisecond)
	return [2]TenantStats{e.Tenants()[0].Stats(), e.Tenants()[1].Stats()}
}

func TestEngineEndToEnd(t *testing.T) {
	got := runPair(nil, 11)
	for i, st := range got {
		if st.Completed < 300 {
			t.Fatalf("tenant %d: only %d completions in 300ms at 1500/s offered", i, st.Completed)
		}
		// Light load on an idle host: end-to-end latency should sit near the
		// unmanaged baseline (~234µs for 64KB), far under a millisecond.
		if st.Latency.Mean() < 100 || st.Latency.Mean() > 1000 {
			t.Errorf("tenant %d: mean latency %.0fµs out of expected envelope", i, st.Latency.Mean())
		}
		if st.P99 < st.P50 {
			t.Errorf("tenant %d: p99 %.0f < p50 %.0f", i, st.P99, st.P50)
		}
		if st.OfferedPerSec < 1200 || st.OfferedPerSec > 1800 {
			t.Errorf("tenant %d: offered %.0f/s, want ≈1500", i, st.OfferedPerSec)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	ios := func() resex.Policy { return resex.NewIOShares() }
	a := runPair(ios, 23)
	b := runPair(ios, 23)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
	c := runPair(ios, 24)
	if a == c {
		t.Fatalf("different seeds produced identical stats (suspicious): %+v", a)
	}
}

func TestClosedLoopConcurrency(t *testing.T) {
	e := New(Config{Hosts: 1, ClientPCPUs: 8})
	tn, err := e.AddTenant(TenantSpec{
		Name:   "closed",
		Closed: ClosedLoop{Concurrency: 4},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunMeasured(20*sim.Millisecond, 200*sim.Millisecond)
	st := tn.Stats()
	if st.Completed == 0 {
		t.Fatal("closed loop completed nothing")
	}
	// Concurrency 4 with zero think time keeps the pipe full: throughput
	// should be several times a single synchronous client's.
	if st.Queued+st.Inflight > 4 {
		t.Errorf("more work outstanding (%d+%d) than concurrency 4", st.Queued, st.Inflight)
	}
	// Little's law cross-check: completions/s × mean latency ≈ concurrency.
	occ := st.CompletedPerSec * st.Latency.Mean() / 1e6
	if occ < 2 || occ > 4.5 {
		t.Errorf("Little's-law occupancy %.2f, want ≈4", occ)
	}
}

func TestQueueCapSheds(t *testing.T) {
	e := New(Config{Hosts: 1, ClientPCPUs: 8})
	// ~4300/s capacity for 64KB FCFS; offer 3× that with a tight queue cap.
	tn, err := e.AddTenant(TenantSpec{
		Name:     "hot",
		Arrivals: benchex.Poisson{Rate: 12000},
		Window:   8,
		QueueCap: 16,
		SLO:      SLOSpec{P99Us: 960},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunMeasured(50*sim.Millisecond, 300*sim.Millisecond)
	st := tn.Stats()
	if st.Shed == 0 {
		t.Fatal("overloaded tenant with queue cap shed nothing")
	}
	if st.Queued > 16 {
		t.Errorf("queue %d exceeds cap 16", st.Queued)
	}
	// Shedding bounds queueing delay: worst case ≈ (cap+window)/service rate,
	// a few ms — not the unbounded backlog an admit-all tenant would build.
	if st.P99 > 10000 {
		t.Errorf("p99 %.0fµs despite queue cap", st.P99)
	}
	shedPct := 100 * float64(st.Shed) / float64(st.Arrivals)
	if shedPct < 20 {
		t.Errorf("shed only %.1f%% at 3x overload", shedPct)
	}
}
