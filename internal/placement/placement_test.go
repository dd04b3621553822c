package placement

import (
	"fmt"
	"testing"

	"resex/internal/benchex"
	"resex/internal/resex"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/workload"
)

func lsWorkload(name string, seed int64) Workload {
	return Workload{
		Name: name, BufferSize: 64 << 10, LatencySensitive: true,
		SLAUs: 240, Window: 1, Seed: seed,
	}
}

func bulkWorkload(name string, seed int64) Workload {
	return Workload{
		Name: name, BufferSize: 2 << 20, Window: 16,
		Arrivals:    benchex.Bursty{Mean: 3700 * sim.Microsecond},
		ProcessTime: 2 * sim.Millisecond, PipelineResponses: true, Seed: seed,
	}
}

// pinStrategy forces every placement onto one node (to engineer bad
// colocations for the rebalancer tests).
type pinStrategy struct{ node int }

func (s pinStrategy) Name() string { return "pin" }
func (s pinStrategy) Pick(hosts []*schedshard.HostInfo, sp schedshard.Spec, _ *sim.Rand) (*schedshard.HostInfo, error) {
	for _, h := range hosts {
		if h.Node == s.node {
			return h, nil
		}
	}
	return nil, fmt.Errorf("pin: node %d not offered", s.node)
}

// TestPipelineSelectTieBreakAndDeterminism: Pick over a store's snapshot
// (what Fleet.Place scores) breaks a score tie to the lowest node, skips a
// full host, decides the same way every time, and errors when no host is
// feasible.
func TestPipelineSelectTieBreakAndDeterminism(t *testing.T) {
	mk := func() []*schedshard.HostInfo {
		return schedshard.NewStore().Publish([]*schedshard.HostInfo{
			{Node: 3, FreePCPUs: 4, TotalPCPUs: 7, ResoHeadroom: 1},
			{Node: 1, FreePCPUs: 4, TotalPCPUs: 7, ResoHeadroom: 1},
			{Node: 2, FreePCPUs: 0, TotalPCPUs: 7, ResoHeadroom: 1},
		}).Hosts
	}
	pipe := schedshard.NewInterferencePipeline()
	spec := schedshard.Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}
	best, err := pipe.Pick(mk(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if best.Node != 1 {
		t.Errorf("tie should break to lowest node, got %d", best.Node)
	}
	again, _ := pipe.Pick(mk(), spec)
	if again.Node != best.Node {
		t.Error("Pick not deterministic")
	}

	// No feasible host at all.
	if _, err := pipe.Pick([]*schedshard.HostInfo{{Node: 1, TotalPCPUs: 7}}, spec); err == nil {
		t.Error("expected error with no feasible host")
	}
}

func TestInterferenceAwareBeatsSpreadOnContaminatedHost(t *testing.T) {
	bulk := schedshard.VMInfo{
		Spec:        schedshard.Spec{Name: "bulk", BufferSize: 2 << 20},
		BytesPerSec: 500e6, BufferSize: 2 << 20,
	}
	ls := schedshard.VMInfo{Spec: schedshard.Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}}
	mk := func() []*schedshard.HostInfo {
		return []*schedshard.HostInfo{
			// Emptier but contaminated by a hard-driving bulk sender.
			{Node: 1, FreePCPUs: 6, TotalPCPUs: 7, LinkBytesPerSec: 1e9,
				IOCommitted: 0.5, ResoHeadroom: 0.8, VMs: []schedshard.VMInfo{bulk}},
			// Fuller but clean.
			{Node: 2, FreePCPUs: 4, TotalPCPUs: 7, LinkBytesPerSec: 1e9,
				IOCommitted: 0.3, ResoHeadroom: 0.8, VMs: []schedshard.VMInfo{ls, ls, ls}},
		}
	}
	spec := schedshard.Spec{Name: "ls-new", LatencySensitive: true, BufferSize: 64 << 10}

	spread, err := schedshard.NewSpreadPipeline().Pick(mk(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if spread.Node != 1 {
		t.Errorf("spread should chase free CPUs onto node1, got %d", spread.Node)
	}
	aware, err := schedshard.NewInterferencePipeline().Pick(mk(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if aware.Node != 2 {
		t.Errorf("interference-aware should avoid the bulk sender, got node%d", aware.Node)
	}

	// Symmetric: an arriving bulk VM should avoid the latency-sensitive
	// crowd even though their host has more free CPUs.
	bulkSpec := schedshard.Spec{Name: "bulk-new", BufferSize: 2 << 20}
	hosts := []*schedshard.HostInfo{
		{Node: 1, FreePCPUs: 4, TotalPCPUs: 7, LinkBytesPerSec: 1e9, ResoHeadroom: 1,
			VMs: []schedshard.VMInfo{ls, ls, ls}},
		{Node: 2, FreePCPUs: 3, TotalPCPUs: 7, LinkBytesPerSec: 1e9, ResoHeadroom: 1,
			VMs: []schedshard.VMInfo{bulk}},
	}
	got, err := schedshard.NewInterferencePipeline().Pick(hosts, bulkSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 2 {
		t.Errorf("arriving bulk VM should join the bulk host, got node%d", got.Node)
	}
}

func TestFleetPlacementSegregatesClasses(t *testing.T) {
	f := NewFleet(Config{Config: workload.Config{Hosts: 2}, Seed: 7})
	bulk, err := f.Place(bulkWorkload("bulk0", 101))
	if err != nil {
		t.Fatal(err)
	}
	ls0, err := f.Place(lsWorkload("ls0", 1))
	if err != nil {
		t.Fatal(err)
	}
	ls1, err := f.Place(lsWorkload("ls1", 2))
	if err != nil {
		t.Fatal(err)
	}
	if ls0.HostIdx == bulk.HostIdx || ls1.HostIdx == bulk.HostIdx {
		t.Fatalf("latency-sensitive VM colocated with interferer: bulk=%d ls0=%d ls1=%d",
			bulk.HostIdx, ls0.HostIdx, ls1.HostIdx)
	}
	f.TB.Eng.RunUntil(300 * sim.Millisecond)
	for _, pl := range []*Placement{ls0, ls1} {
		st := pl.App.Server.Stats()
		if st.Served < 100 {
			t.Errorf("%s served only %d requests", pl.Spec.Name, st.Served)
		}
		if mean := st.Total.Mean(); mean > 280 {
			t.Errorf("%s mean service time %.1fµs on a clean host", pl.Spec.Name, mean)
		}
	}
	if got := len(f.Placements()); got != 3 {
		t.Errorf("placements = %d, want 3", got)
	}
}

func TestMigrationMovesStateOverFabricAndResumes(t *testing.T) {
	const state = 8 << 20
	run := func() (MigrationRecord, string) {
		f := NewFleet(Config{Config: workload.Config{Hosts: 2}, Seed: 3})
		pl, err := f.Place(lsWorkload("ls0", 1))
		if err != nil {
			t.Fatal(err)
		}
		src := f.Workers[pl.HostIdx]
		var rec MigrationRecord
		var migErr error
		var servedBefore int64
		f.TB.Eng.Go("driver", func(p *sim.Proc) {
			p.Sleep(100 * sim.Millisecond)
			servedBefore = pl.App.Server.Stats().Served
			rec, migErr = f.Migrate(p, pl, f.Workers[1], MigrationConfig{StateBytes: state})
		})
		f.TB.Eng.RunUntil(500 * sim.Millisecond)
		if migErr != nil {
			t.Fatal(migErr)
		}
		if servedBefore == 0 {
			t.Error("server idle before migration")
		}
		served := pl.App.Server.Stats().Served
		fp := fmt.Sprintf("%v %v %d %d", rec.Start, rec.End, rec.FlowBytes, served)

		if rec.From != src.Node || rec.To != 2 {
			t.Errorf("migration route %d->%d, want %d->2", rec.From, rec.To, src.Node)
		}
		if rec.FlowBytes < state {
			t.Errorf("source uplink accounted %d migration bytes, want >= %d (migration must ride the fabric)",
				rec.FlowBytes, state)
		}
		if rec.Downtime <= 0 || rec.End <= rec.Start {
			t.Errorf("degenerate migration timing: %+v", rec)
		}
		if pl.App.ServerVM.Host != f.Workers[1] {
			t.Error("server VM not on the target host")
		}
		if served == 0 {
			t.Error("server never served after resume")
		}
		if got := len(pl.Records()); got == 0 {
			t.Error("timeline lost across migration")
		}
		// The source host got its PCPU back and dropped the VM from
		// management.
		if free := src.FreePCPUs(); free != 7 {
			t.Errorf("source host free PCPUs = %d, want 7", free)
		}
		if f.Mgrs[0].VM(pl.App.ServerVM.Dom.ID()) != nil {
			t.Error("source manager still manages the migrated VM")
		}
		if f.Mgrs[1].VM(pl.App.ServerVM.Dom.ID()) == nil {
			t.Error("target manager does not manage the migrated VM")
		}
		return rec, fp
	}
	_, fp1 := run()
	_, fp2 := run()
	if fp1 != fp2 {
		t.Errorf("migration not deterministic:\n  %s\n  %s", fp1, fp2)
	}
}

func TestRebalancerEvacuatesThrottleProofInterferer(t *testing.T) {
	// Pin both workloads onto node1 under FreeMarket (which never throttles
	// on latency): the only way out for the latency-sensitive VM is the
	// rebalancer migrating the interferer away.
	f := NewFleet(Config{
		Config: workload.Config{
			Hosts:             2,
			IntervalsPerEpoch: 100,
			Policy:            func() resex.Policy { return resex.NewFreeMarket() },
		},
		Seed:     11,
		Strategy: pinStrategy{node: 1},
	})
	ls, err := f.Place(lsWorkload("ls0", 1))
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := f.Place(bulkWorkload("bulk0", 102))
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRebalancer(f, RebalanceConfig{
		Migration: MigrationConfig{StateBytes: 8 << 20},
	})
	rb.Start()
	f.TB.Eng.RunUntil(1500 * sim.Millisecond)

	if len(f.Log.Migrations) == 0 {
		t.Fatal("rebalancer never migrated despite a throttle-proof interferer")
	}
	first := f.Log.Migrations[0]
	if first.VM != "bulk0" {
		t.Errorf("rebalancer moved %q, want the interferer bulk0", first.VM)
	}
	if ls.HostIdx == bulk.HostIdx {
		t.Error("workloads still colocated after rebalancing")
	}
	if st := bulk.App.Server.Stats(); st.Served == 0 {
		t.Error("interferer dead after migration")
	}
	// The victim must be healthy again at the end: its final epoch summary
	// shows (near-)baseline latency.
	if ls.lastIntf > 20 {
		t.Errorf("victim still %v%% elevated at end of run", ls.lastIntf)
	}
}

// TestFleetMarketWiring: a fleet publishes each worker's own uplink
// capacity into its scheduler snapshots, heterogeneous links included, and
// an IOShares fleet keeps no trade books.
func TestFleetMarketWiring(t *testing.T) {
	f := NewFleet(Config{
		Config: workload.Config{
			Hosts:          3,
			LinkBandwidths: []float64{1e9, 0, 500e6}, // heterogeneous: node3 is half-rate
		},
		Seed: 1,
	})
	if got := len(resex.Books(f.Mgrs)); got != 0 {
		t.Fatalf("IOShares fleet has %d books, want 0", got)
	}
	if _, err := f.Place(bulkWorkload("bulk-a", 7)); err != nil {
		t.Fatal(err)
	}
	f.TB.Eng.RunUntil(2 * sim.Second)
	hosts := f.refresh().Hosts
	for i, h := range hosts {
		want := f.cfg.WorkerLink(i)
		if h.LinkBytesPerSec != want {
			t.Fatalf("host %d link %.0f, want %.0f", h.Node, h.LinkBytesPerSec, want)
		}
	}
	if hosts[2].LinkBytesPerSec != 500e6 {
		t.Fatalf("heterogeneous link override lost: %.0f", hosts[2].LinkBytesPerSec)
	}
}
