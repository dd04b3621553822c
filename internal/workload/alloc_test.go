package workload

import (
	"testing"

	"resex/internal/benchex"
	"resex/internal/sim"
)

func TestTenantRequestAllocs(t *testing.T) {
	// A warm 64 KB tenant allocates nothing per request, closed or open
	// loop: its arrival and in-flight FIFOs are rings, the request path is
	// the BenchEx connection the benchex client uses
	// (TestBenchExRequestAllocs in internal/cluster), the SLO window sketch
	// keeps its buckets across resets, and guest memory already holds every
	// chunk it writes. What is left is the latency sketches' amortized
	// growth.
	cases := []struct {
		name string
		spec TenantSpec
	}{
		{"closed1", TenantSpec{}},
		{"closed4", TenantSpec{Closed: ClosedLoop{Concurrency: 4}}},
		{"poisson", TenantSpec{Arrivals: benchex.Poisson{Rate: 2000}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(Config{})
			tn, err := e.AddTenant(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			eng := e.TB.Eng
			defer e.Shutdown()
			const slice = 20 * sim.Millisecond
			run := func() { eng.RunUntil(eng.Now() + slice) }
			// Warm up until every 1024-entry CQ ring has wrapped, so that
			// all its chunks exist.
			for tn.Stats().Completed < 1100 {
				run()
			}
			before := tn.Stats().Completed
			const runs = 5
			allocs := testing.AllocsPerRun(runs, run) // plus one warm-up run
			perRun := float64(tn.Stats().Completed-before) / (runs + 1)
			if perRun < 30 {
				t.Fatalf("only %.0f requests per %v", perRun, slice)
			}
			perReq := allocs / perRun
			t.Logf("%.1f allocs per %.0f requests = %.4f per request", allocs, perRun, perReq)
			if perReq > 0.05 {
				t.Errorf("%.4f allocs per request, want at most 0.05", perReq)
			}
		})
	}
}
