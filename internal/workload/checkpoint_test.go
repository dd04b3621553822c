package workload

import (
	"reflect"
	"testing"

	"resex/internal/benchex"
	"resex/internal/resex"
	"resex/internal/sim"
)

// runMix drives a closed-loop latency tenant against a bursty bulk tenant
// under FreeMarket to 250ms and returns the engine's export.
func runMix(t *testing.T, midCheckpoint bool) State {
	t.Helper()
	e := New(Config{Hosts: 1, ClientPCPUs: 8,
		Policy: func() resex.Policy { return resex.NewFreeMarket() }})
	if _, err := e.AddTenant(TenantSpec{
		Name:   "lat",
		Closed: ClosedLoop{Concurrency: 1},
		SLO:    SLOSpec{P99Us: 360},
		SLAUs:  240,
		Seed:   42,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddTenant(TenantSpec{
		Name:       "bulk",
		BufferSize: 2 << 20,
		Arrivals: &benchex.MMPP2{
			CalmRate: 150, BurstRate: 800,
			CalmDwell: 40 * sim.Millisecond, BurstDwell: 10 * sim.Millisecond,
		},
		Window:         16,
		ProcessTime:    2 * sim.Millisecond,
		PipelineServer: true,
		Seed:           77,
	}); err != nil {
		t.Fatal(err)
	}
	e.Start()
	if midCheckpoint {
		e.TB.Eng.Breakpoint(120*sim.Millisecond, func() { _ = e.Checkpoint() })
	}
	e.TB.Eng.RunUntil(250 * sim.Millisecond)
	st := e.Checkpoint()
	e.Shutdown()
	return st
}

// TestCheckpointEquality: identical seeded runs export identical arrival
// cursors, SLO windows, and traffic counters, and a mid-run export does not
// perturb the run.
func TestCheckpointEquality(t *testing.T) {
	a := runMix(t, false)
	b := runMix(t, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-run exports differ:\n%+v\n%+v", a, b)
	}
	c := runMix(t, true)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("mid-run Checkpoint perturbed the run:\n%+v\n%+v", a, c)
	}
	if len(a.Tenants) != 2 {
		t.Fatalf("export holds %d tenants, want 2", len(a.Tenants))
	}
	for _, tn := range a.Tenants {
		if tn.Completed == 0 {
			t.Fatalf("tenant %s completed nothing by 250ms", tn.Name)
		}
	}
}
