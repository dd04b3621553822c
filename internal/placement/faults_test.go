package placement

import (
	"errors"
	"testing"

	"resex/internal/faults"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/workload"
)

// TestMigrationPreCopyAbortRollsBackCleanly drives a migration straight into
// a MigrationFail window and checks the rollback contract: the source VM
// never stops serving, nothing leaks on the target, the failure is recorded,
// and the same placement migrates cleanly once the window has passed.
func TestMigrationPreCopyAbortRollsBackCleanly(t *testing.T) {
	f := NewFleet(Config{Config: workload.Config{Hosts: 2}, Seed: 3})
	inj := faults.NewInjector(f.TB.Eng)
	f.WireFaults(inj)
	var s faults.Schedule
	s.Add(faults.Event{At: 0, Kind: faults.MigrationFail, Host: 1,
		Duration: 300 * sim.Millisecond})
	inj.Arm(s)

	pl, err := f.Place(lsWorkload("ls0", 1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Workers[pl.HostIdx].Node != 1 {
		t.Fatalf("ls0 placed on node%d, want node1", f.Workers[pl.HostIdx].Node)
	}
	target := f.Workers[1]
	targetFree := 0
	var abortErr, retryErr error
	var servedBefore, servedBetween int64
	vmBefore := pl.App.ServerVM
	var vmAfterAbort interface{}
	var migrationsAfterAbort int
	f.TB.Eng.Go("driver", func(p *sim.Proc) {
		p.Sleep(100 * sim.Millisecond)
		servedBefore = pl.App.Server.Stats().Served
		targetFree = target.FreePCPUs()
		_, abortErr = f.Migrate(p, pl, target, MigrationConfig{StateBytes: 8 << 20})
		p.Sleep(100 * sim.Millisecond)
		servedBetween = pl.App.Server.Stats().Served
		vmAfterAbort = pl.App.ServerVM
		migrationsAfterAbort = pl.Migrations
		p.Sleep(200 * sim.Millisecond) // past the fail window
		_, retryErr = f.Migrate(p, pl, target, MigrationConfig{StateBytes: 8 << 20})
	})
	f.TB.Eng.RunUntil(800 * sim.Millisecond)

	if !errors.Is(abortErr, ErrPreCopyAborted) {
		t.Fatalf("migration inside the fail window: err = %v, want ErrPreCopyAborted", abortErr)
	}
	// Source VM kept running across the abort: same incarnation, still
	// serving, no incarnation counter bump.
	if vmAfterAbort != interface{}(vmBefore) {
		t.Error("aborted migration replaced the server VM")
	}
	if migrationsAfterAbort != 0 {
		t.Errorf("pl.Migrations = %d right after abort, want 0", migrationsAfterAbort)
	}
	if pl.Migrations != 1 {
		// One *successful* migration total (the retry); the abort must not
		// count as an incarnation change.
		t.Errorf("pl.Migrations = %d, want 1 (abort must not count)", pl.Migrations)
	}
	if servedBetween <= servedBefore {
		t.Errorf("source VM stopped serving after the abort (%d -> %d)", servedBefore, servedBetween)
	}
	// No leaked reservations on the target: its PCPUs and managers were
	// untouched by the aborted attempt (the retry later takes them over).
	if len(f.Log.Failures) != 1 {
		t.Fatalf("failure log has %d records, want 1", len(f.Log.Failures))
	}
	fail := f.Log.Failures[0]
	if fail.VM != "ls0" || fail.From != 1 || fail.To != 2 {
		t.Errorf("failure record %+v, want ls0 node1->node2", fail)
	}

	// Ledger reconciles: the retry after the window succeeds end to end.
	if retryErr != nil {
		t.Fatalf("retry after the fail window: %v", retryErr)
	}
	if pl.App.ServerVM.Host != target {
		t.Error("retry did not land the VM on the target")
	}
	if free := target.FreePCPUs(); free != targetFree-1 {
		t.Errorf("target free PCPUs = %d, want %d (exactly one VM's worth)", free, targetFree-1)
	}
	if free := f.Workers[0].FreePCPUs(); free != 7 {
		t.Errorf("source free PCPUs = %d, want 7 (slot returned)", free)
	}
	if f.Mgrs[0].VM(pl.App.ServerVM.Dom.ID()) != nil {
		t.Error("source manager still manages the VM after successful retry")
	}
	if f.Mgrs[1].VM(pl.App.ServerVM.Dom.ID()) == nil {
		t.Error("target manager does not manage the VM after successful retry")
	}
	if st := pl.App.Server.Stats(); st.Served == 0 {
		t.Error("server dead after retry")
	}
	if len(f.Log.Migrations) != 1 {
		t.Errorf("migration log has %d records, want 1 (only the success)", len(f.Log.Migrations))
	}
}

// TestRebalancerBacksOffAfterAbortThenSucceeds pins a victim and a
// throttle-proof interferer together while migrations out of their host fail,
// and expects the backoff-configured rebalancer to record the aborts, wait,
// and complete the evacuation once the window lifts.
func TestRebalancerBacksOffAfterAbortThenSucceeds(t *testing.T) {
	f := NewFleet(Config{
		Config: workload.Config{
			Hosts:             2,
			IntervalsPerEpoch: 100,
			Policy:            func() resex.Policy { return resex.NewFreeMarket() },
		},
		Seed:     11,
		Strategy: pinStrategy{node: 1},
	})
	inj := faults.NewInjector(f.TB.Eng)
	f.WireFaults(inj)
	var s faults.Schedule
	s.Add(faults.Event{At: 0, Kind: faults.MigrationFail, Host: 1,
		Duration: 700 * sim.Millisecond})
	inj.Arm(s)

	if _, err := f.Place(lsWorkload("ls0", 1)); err != nil {
		t.Fatal(err)
	}
	bulk, err := f.Place(bulkWorkload("bulk0", 102))
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRebalancer(f, RebalanceConfig{
		Migration:    MigrationConfig{StateBytes: 8 << 20},
		RetryBackoff: 50 * sim.Millisecond,
	})
	rb.Start()
	f.TB.Eng.RunUntil(2500 * sim.Millisecond)

	if len(f.Log.Failures) == 0 {
		t.Fatal("no aborted migration recorded inside the fail window")
	}
	if bulk.MigrationFailures() == 0 && len(f.Log.Migrations) == 0 {
		t.Fatal("rebalancer neither failed nor succeeded; it never tried")
	}
	if len(f.Log.Migrations) == 0 {
		t.Fatal("rebalancer never completed the evacuation after the window lifted")
	}
	if f.Log.Migrations[0].VM != "bulk0" {
		t.Errorf("rebalancer moved %q, want bulk0", f.Log.Migrations[0].VM)
	}
	if bulk.MigrationFailures() != 0 {
		t.Errorf("failure streak %d after a successful migration, want 0", bulk.MigrationFailures())
	}
	if st := bulk.App.Server.Stats(); st.Served == 0 {
		t.Error("interferer dead after retried migration")
	}
}

// TestRebalancerRetriesThroughFaultStorm runs the full rollback→retry
// interaction under a generated fault storm: repeated MigrationFail windows
// force pre-copy aborts while telemetry blackouts, link degrades and HCA
// stalls from faults.Generate batter both hosts. The rebalancer must roll
// back cleanly on every abort (no leaked PCPU reservations), back off, and
// still complete the evacuation once a window lifts.
func TestRebalancerRetriesThroughFaultStorm(t *testing.T) {
	f := NewFleet(Config{
		Config: workload.Config{
			Hosts:             2,
			IntervalsPerEpoch: 100,
			Policy:            func() resex.Policy { return resex.NewFreeMarket() },
		},
		Seed:     13,
		Strategy: pinStrategy{node: 1},
	})
	inj := faults.NewInjector(f.TB.Eng)
	f.WireFaults(inj)
	s := faults.Generate(13, faults.GenConfig{
		Hosts:        []int{1, 2},
		Start:        0,
		Horizon:      1200 * sim.Millisecond,
		StormsPerSec: 3,
	})
	// A migration-fail window spanning the whole storm period: every
	// attempt the rebalancer makes while the storm rages aborts; the
	// eventual retry after the window lands.
	s.Add(faults.Event{At: 0, Kind: faults.MigrationFail, Host: 1,
		Duration: 1500 * sim.Millisecond})
	inj.Arm(s)

	if _, err := f.Place(lsWorkload("ls0", 1)); err != nil {
		t.Fatal(err)
	}
	bulk, err := f.Place(bulkWorkload("bulk0", 102))
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := f.Workers[0].FreePCPUs() + f.Workers[1].FreePCPUs()

	rb := NewRebalancer(f, RebalanceConfig{
		Migration:    MigrationConfig{StateBytes: 8 << 20},
		RetryBackoff: 60 * sim.Millisecond,
	})
	rb.Start()
	f.TB.Eng.RunUntil(4000 * sim.Millisecond)

	if len(f.Log.Failures) == 0 {
		t.Fatal("no aborted migration recorded inside the fail window")
	}
	if len(f.Log.Migrations) == 0 {
		t.Fatal("rebalancer never completed the evacuation after the storm")
	}
	if f.Log.Migrations[0].VM != "bulk0" {
		t.Errorf("rebalancer moved %q, want bulk0", f.Log.Migrations[0].VM)
	}
	// Every abort rolled back without leaking a reservation: the fleet's
	// total free PCPUs are unchanged — the VMs just moved.
	if freeAfter := f.Workers[0].FreePCPUs() + f.Workers[1].FreePCPUs(); freeAfter != freeBefore {
		t.Errorf("fleet free PCPUs %d, want %d (aborts must not leak slots)",
			freeAfter, freeBefore)
	}
	if bulk.MigrationFailures() != 0 {
		t.Errorf("failure streak %d after successful migration, want 0 (reset)", bulk.MigrationFailures())
	}
	if bulk.App.ServerVM.Host != f.Workers[1] {
		t.Error("bulk0 did not land on node2")
	}
	if st := bulk.App.Server.Stats(); st.Served == 0 {
		t.Error("interferer dead after storm-era migration")
	}
}
