package placement

import (
	"reflect"
	"testing"

	"resex/internal/sim"
	"resex/internal/workload"
)

// runFleet places three workloads on a two-host fleet, lets the rebalancer
// observe a few epochs, and returns the fleet's binding export at 300ms.
func runFleet(t *testing.T, midCheckpoint bool) State {
	t.Helper()
	f := NewFleet(Config{Config: workload.Config{Hosts: 2}, Seed: 3})
	for _, w := range []Workload{
		bulkWorkload("bulk0", 101),
		lsWorkload("ls0", 1),
		lsWorkload("ls1", 2),
	} {
		if _, err := f.Place(w); err != nil {
			t.Fatal(err)
		}
	}
	if midCheckpoint {
		f.TB.Eng.Breakpoint(150*sim.Millisecond, func() { _ = f.Checkpoint() })
	}
	f.TB.Eng.RunUntil(300 * sim.Millisecond)
	return f.Checkpoint()
}

// TestCheckpointEquality: identical seeded fleets export identical bindings
// and RNG positions, and a mid-run export does not perturb placement.
func TestCheckpointEquality(t *testing.T) {
	a := runFleet(t, false)
	b := runFleet(t, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-run exports differ:\n%+v\n%+v", a, b)
	}
	c := runFleet(t, true)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("mid-run Checkpoint perturbed the fleet:\n%+v\n%+v", a, c)
	}
	if len(a.Placements) != 3 {
		t.Fatalf("export holds %d placements, want 3", len(a.Placements))
	}
}
