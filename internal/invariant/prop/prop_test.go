package prop

import (
	"fmt"
	"reflect"
	"testing"

	"resex/internal/benchex"
	"resex/internal/faults"
	"resex/internal/invariant"
	"resex/internal/placement"
	"resex/internal/resex"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// buildEngine assembles a managed or unmanaged rig and adds every spec, in
// order, failing the test on any admission error.
func buildEngine(t *testing.T, cfg workload.Config, specs []workload.TenantSpec) *workload.Engine {
	t.Helper()
	e := workload.New(cfg)
	for _, spec := range specs {
		if _, err := e.AddTenant(spec); err != nil {
			t.Fatalf("AddTenant(%s): %v", spec.Name, err)
		}
	}
	return e
}

// TestZeroRateMeansZeroWork is the degenerate-load metamorphic relation:
// scale every tenant's offered load to zero (a paced process whose first beat
// lands past the horizon) and the run must produce no arrivals, no issues,
// no completions, no IO charges — and no invariant violations, in Strict
// mode, while the managed machinery (epochs, pricing, replenishment) still
// turns underneath.
func TestZeroRateMeansZeroWork(t *testing.T) {
	cfg := workload.Config{Hosts: 1, IntervalsPerEpoch: 50}
	cfg.Policy = func() resex.Policy { return resex.NewFreeMarket() }
	var specs []workload.TenantSpec
	for i := 0; i < 3; i++ {
		specs = append(specs, workload.TenantSpec{
			Name: fmt.Sprintf("idle%d", i),
			// Rate 1/s is legal (AddTenant rejects rate <= 0) but the first
			// arrival lands at ~1 s, far past the 150 ms horizon.
			Arrivals: benchex.Paced{Every: sim.Second},
			SLAUs:    300,
			Seed:     int64(i) + 1,
		})
	}
	e := buildEngine(t, cfg, specs)
	col := invariant.NewCollector(invariant.Strict)
	stop := snapshot.ForWorkload(e).Audit(e.TB.Eng, col).Close
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("strict violation under zero load: %v", r)
		}
	}()
	e.RunMeasured(10*sim.Millisecond, 150*sim.Millisecond)
	stop()

	for _, tn := range e.Tenants() {
		st := tn.Stats()
		if st.Arrivals != 0 || st.Issued != 0 || st.Completed != 0 || st.Shed != 0 {
			t.Errorf("%s: zero-rate tenant did work: %+v", tn.Spec.Name, st)
		}
	}
	for _, mgr := range e.Mgrs {
		for _, vm := range mgr.VMs() {
			if got := vm.Account.IOCharged(); got != 0 {
				t.Errorf("%s: charged %v IO Resos with zero traffic", vm.Dom.Name(), got)
			}
		}
	}
	if r := col.Report(); r.Total != 0 || r.Events == 0 {
		t.Fatalf("audit report off: %+v", r)
	}
}

// permutationFields is the per-tenant digest the permutation relation
// compares: everything a tenant measures about itself.
type permutationFields struct {
	Arrivals, Shed, Issued, Completed int64
	P50, P99, P999                    float64
	Mean                              float64
}

// runPermutation builds a fleet with one worker host per tenant (placement
// is round-robin, so every declaration order gives each tenant a private,
// identical host) and returns the per-tenant digest keyed by name.
func runPermutation(t *testing.T, order []int) map[string]permutationFields {
	t.Helper()
	base := []workload.TenantSpec{
		{Name: "a", Arrivals: benchex.Paced{Every: 1100 * sim.Microsecond}, Seed: 11},
		{Name: "b", Arrivals: benchex.Paced{Every: 1700 * sim.Microsecond}, Seed: 12, BufferSize: 16 << 10},
		{Name: "c", Arrivals: benchex.Poisson{Rate: 500}, Seed: 13, BufferSize: 4 << 10},
	}
	specs := make([]workload.TenantSpec, len(order))
	for i, j := range order {
		specs[i] = base[j]
	}
	e := buildEngine(t, workload.Config{Hosts: len(base)}, specs)
	e.RunMeasured(20*sim.Millisecond, 200*sim.Millisecond)
	out := make(map[string]permutationFields, len(base))
	for _, tn := range e.Tenants() {
		st := tn.Stats()
		out[tn.Spec.Name] = permutationFields{
			Arrivals: st.Arrivals, Shed: st.Shed, Issued: st.Issued, Completed: st.Completed,
			P50: st.P50, P99: st.P99, P999: st.P999, Mean: st.Latency.Mean(),
		}
	}
	return out
}

// TestTenantOrderPermutation is the relabeling metamorphic relation:
// permuting tenant declaration order changes VM names, domain ids and event
// sequence numbers, but every tenant's own measurements — counts and the
// full latency digest — must come out identical, keyed by tenant name.
func TestTenantOrderPermutation(t *testing.T) {
	ref := runPermutation(t, []int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 2, 0}} {
		got := runPermutation(t, order)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("declaration order %v changed per-tenant results:\nref %+v\ngot %+v", order, ref, got)
		}
	}
}

// TestEpochPrefixDeterminism is the horizon-extension metamorphic relation:
// running the identical managed rig twice as long must reproduce the first
// run's per-epoch ledger exactly as a prefix — extending the future cannot
// rewrite the past.
func TestEpochPrefixDeterminism(t *testing.T) {
	run := func(horizon sim.Time) []resex.State {
		cfg := workload.Config{Hosts: 1, IntervalsPerEpoch: 50}
		cfg.Policy = func() resex.Policy { return resex.NewFreeMarket() }
		rng := sim.NewRand(42)
		e := buildEngine(t, cfg, Tenants(rng, 3))
		var ledgers []resex.State
		for _, mgr := range e.Mgrs {
			mgr.ObserveEpoch(func(resex.EpochSummary) { ledgers = append(ledgers, mgr.Checkpoint()) })
		}
		e.Start()
		e.TB.Eng.RunUntil(horizon)
		e.Shutdown()
		return ledgers
	}
	const horizon = 260 * sim.Millisecond
	short := run(horizon)
	long := run(2 * horizon)
	if len(short) == 0 {
		t.Fatal("no epochs observed — shrink IntervalsPerEpoch or extend the horizon")
	}
	if len(long) < len(short) {
		t.Fatalf("doubled horizon saw fewer epochs: %d vs %d", len(long), len(short))
	}
	if !reflect.DeepEqual(short, long[:len(short)]) {
		t.Fatalf("epoch ledger prefix changed when the horizon doubled:\nshort %+v\nlong  %+v", short, long[:len(short)])
	}
}

// TestRandomRigsStrict sweeps generated rigs — random host counts, tenant
// mixes and policies — under a Strict auditor: whatever the generator draws,
// the stack's conservation and causality invariants must hold.
func TestRandomRigsStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed generated rigs; skipped in -short")
	}
	policies := []func() resex.Policy{
		nil,
		func() resex.Policy { return resex.NewFreeMarket() },
		func() resex.Policy { return resex.NewIOShares() },
	}
	for _, seed := range []int64{5, 21, 63} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := sim.NewRand(seed)
			cfg := Cluster(rng)
			cfg.Policy = policies[rng.Intn(len(policies))]
			specs := Tenants(rng, 2+rng.Intn(3))
			e := buildEngine(t, cfg, specs)
			col := invariant.NewCollector(invariant.Strict)
			stop := snapshot.ForWorkload(e).Audit(e.TB.Eng, col).Close
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: strict violation: %v", seed, r)
				}
			}()
			e.RunMeasured(20*sim.Millisecond, 150*sim.Millisecond)
			stop()
			if r := col.Report(); r.Total != 0 || r.Events == 0 {
				t.Fatalf("seed %d: audit report off: %+v", seed, r)
			}
		})
	}
}

// TestFaultPlansAudited runs generated fault storms against a small managed
// fleet in Audit mode and requires a clean report: injected degradation,
// blackouts and HCA stalls are the exact conditions the auditor's
// stall-aware overrun predicate and conservation checks must absorb without
// false positives — and any true breach they expose is a real bug.
func TestFaultPlansAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-storm fleet runs; skipped in -short")
	}
	for _, seed := range []int64{9, 33} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			const hosts = 2
			f := placement.NewFleet(placement.Config{
				Config: workload.Config{
					Hosts:             hosts,
					ClientPCPUs:       2*hosts + 2,
					IntervalsPerEpoch: 50,
					ConfidenceGate:    0.7,
				},
				Strategy: placement.PipelineStrategy{Label: "spread", P: schedshard.NewSpreadPipeline()},
				Seed:     seed,
			})
			col := invariant.NewCollector(invariant.Audit)
			stop := snapshot.ForFleet(f).Audit(f.TB.Eng, col).Close

			var ws []placement.Workload
			for i := 0; i < 2*hosts; i++ {
				ws = append(ws, placement.Workload{
					Name: fmt.Sprintf("app%d", i), BufferSize: 16 << 10,
					LatencySensitive: true, SLAUs: 400, Window: 1 + i%2,
					Seed: seed + int64(i),
				})
			}
			const gap = 10 * sim.Millisecond
			var placeErr error
			f.TB.Eng.Go("arrivals", func(p *sim.Proc) {
				for _, w := range ws {
					if _, err := f.Place(w); err != nil {
						placeErr = err
						return
					}
					p.Sleep(gap)
				}
			})

			start := gap*sim.Time(len(ws)) + 20*sim.Millisecond
			horizon := start + 300*sim.Millisecond
			inj := faults.NewInjector(f.TB.Eng)
			f.WireFaults(inj)
			rng := sim.NewRand(seed ^ 0x0b5e55ed)
			inj.Arm(FaultPlan(rng, []int{1, 2}, start, horizon))

			f.TB.Eng.RunUntil(horizon + 50*sim.Millisecond)
			if placeErr != nil {
				t.Fatalf("place: %v", placeErr)
			}
			stop()
			f.TB.Eng.Shutdown()
			if len(inj.Fired()) == 0 {
				t.Fatalf("seed %d: fault plan fired nothing — property vacuous", seed)
			}
			if r := col.Report(); r.Total != 0 {
				t.Fatalf("seed %d: %d violations under fault storms: %+v", seed, r.Total, r.First)
			}
		})
	}
}
