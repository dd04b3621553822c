package experiments

import (
	"reflect"
	"testing"

	"resex/internal/sim"
)

func runGeoCell(t *testing.T, zones, shards, shift int) AblGeoDiurnalRow {
	t.Helper()
	o := Options{Duration: 40 * sim.Millisecond, Warmup: 10 * sim.Millisecond, Seed: 7}.WithDefaults()
	row, err := RunGeoDiurnalCell(o, zones, shards, shift)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestGeoDiurnalPhaseShiftPermutation is the rotation-equivariance
// metamorphic relation the geodiurnal driver is built around: a global
// phase shift re-maps which physical zone hosts which diurnal slot, but
// every slot's world — seeds, phase, SLA, its place in the replication ring
// — travels with it, so the slot-keyed rows, the integer fleet totals, the
// sun-chaser's decisions and the epoch fingerprint must come out identical
// under any shift. Only node ids (not part of the row) change.
func TestGeoDiurnalPhaseShiftPermutation(t *testing.T) {
	t.Parallel()
	const zones, shards = 4, 2
	ref := runGeoCell(t, zones, shards, 0)
	if len(ref.PerZone) != zones || ref.Received == 0 || ref.OnTime == 0 || ref.Windows == 0 {
		t.Fatalf("degenerate reference cell: %+v", ref)
	}
	// Non-vacuity: the phase-shifted curves must actually differentiate the
	// slots — identical rows would make the permutation relation trivial.
	distinct := false
	for _, z := range ref.PerZone[1:] {
		if z.Received != ref.PerZone[0].Received {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatalf("all slots received identical load — diurnal phases not differentiating: %+v", ref.PerZone)
	}
	for _, shift := range []int{1, 3} {
		got := runGeoCell(t, zones, shards, shift)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("shift %d changed slot-keyed outcomes:\nref %+v\ngot %+v", shift, ref, got)
		}
	}
}

// TestGeoDiurnalChaserFollowsPeak pins the migration-pressure side of the
// pack: over a run long enough for the compressed day to walk the peak
// around the ring, the sun chaser must actually migrate capacity (moves),
// while conserving its unit pool across zones.
func TestGeoDiurnalChaserFollowsPeak(t *testing.T) {
	t.Parallel()
	row := runGeoCell(t, 4, 1, 0)
	if row.Moves == 0 {
		t.Fatalf("walking diurnal peak generated no migrations: %+v", row)
	}
	units := 0
	for _, z := range row.PerZone {
		units += z.Units
	}
	if units != 4*geoUnitsPerZone {
		t.Fatalf("unit pool not conserved: %d across zones, want %d", units, 4*geoUnitsPerZone)
	}
}
