package prop

import (
	"reflect"
	"testing"

	"resex/internal/exchange"
	"resex/internal/invariant"
	"resex/internal/resex"
	"resex/internal/resos"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// membwPolicy builds the Fungible economy the membw relations run under:
// fabric always priced, the memory-bandwidth dimension priced only when
// priced is set (Capacity[DimMemBW] > 0 is the whole opt-in).
func membwPolicy(priced bool) func() resex.Policy {
	fabCap := 1e9 * 0.25 / 1024
	memCap := 400e6 * 0.25 / 4096
	return func() resex.Policy {
		p := resex.NewFungible()
		p.Exchange.Capacity[exchange.DimFabric] = resos.Amount(fabCap)
		if priced {
			p.Exchange.Capacity[exchange.DimMemBW] = resos.Amount(memCap)
		}
		return p
	}
}

// membwDigest is everything a membw run measures: the per-epoch host
// ledgers, the per-tenant latency/count digests, and the book's trade count
// and non-membw prices.
type membwDigest struct {
	Ledgers []resex.State
	Tenants map[string]permutationFields
	Trades  int64
	PxCPU   float64
	PxFab   float64
}

// runMembw executes one seeded rig under the given economy and returns its
// digest. Specs are regenerated from the seed inside each run (never reused
// across runs) because arrival processes like MMPP2 carry mutable regime
// state — the same discipline TestEpochPrefixDeterminism uses.
func runMembw(t *testing.T, seed int64, priced bool) membwDigest {
	t.Helper()
	rng := sim.NewRand(seed)
	specs := Tenants(rng, 3) // MemBytesPerReq zero throughout: no membw demand
	cfg := workload.Config{Hosts: 1, IntervalsPerEpoch: 50, LinkBandwidth: 1e9}
	cfg.Policy = membwPolicy(priced)
	e := buildEngine(t, cfg, specs)
	var d membwDigest
	for _, mgr := range e.Mgrs {
		mgr.ObserveEpoch(func(resex.EpochSummary) { d.Ledgers = append(d.Ledgers, mgr.Checkpoint()) })
	}
	e.RunMeasured(20*sim.Millisecond, 400*sim.Millisecond)
	d.Tenants = make(map[string]permutationFields)
	for _, tn := range e.Tenants() {
		st := tn.Stats()
		d.Tenants[tn.Spec.Name] = permutationFields{
			Arrivals: st.Arrivals, Shed: st.Shed, Issued: st.Issued, Completed: st.Completed,
			P50: st.P50, P99: st.P99, P999: st.P999, Mean: st.Latency.Mean(),
		}
	}
	for _, mgr := range e.Mgrs {
		if bp, ok := mgr.Policy().(exchange.BookKeeper); ok {
			bk := bp.Book()
			d.Trades += bk.TradeCount()
			d.PxCPU = bk.Board().Price(exchange.DimCPU)
			d.PxFab = bk.Board().Price(exchange.DimFabric)
		}
	}
	return d
}

// TestMemBWZeroDemandIsNoOp is the third-dimension no-op metamorphic
// relation: when no tenant declares memory traffic (zero DimMemBW demand),
// pricing the dimension must change *nothing* — epoch ledgers, tenant
// latency digests, trades and the other dimensions' prices are byte-
// identical to the plain two-dimension economy. Memory bandwidth is pure
// accounting until somebody actually spends it.
func TestMemBWZeroDemandIsNoOp(t *testing.T) {
	for _, seed := range []int64{7, 29} {
		blind := runMembw(t, seed, false)
		priced := runMembw(t, seed, true)
		if len(blind.Ledgers) == 0 {
			t.Fatalf("seed %d: no epochs observed — relation vacuous", seed)
		}
		if !reflect.DeepEqual(blind, priced) {
			t.Fatalf("seed %d: pricing an unused dimension changed the run:\nblind  %+v\npriced %+v",
				seed, blind, priced)
		}
	}
}

// TestMixedCritRigStrict runs the generated mixed-criticality rig — real
// DimMemBW demand against a priced third dimension — under a Strict
// auditor: metering, settlement and membw enforcement must hold every
// conservation and causality invariant while the economy is actually
// trading in three dimensions.
func TestMixedCritRigStrict(t *testing.T) {
	for _, seed := range []int64{13, 57} {
		rng := sim.NewRand(seed)
		specs := MixedTenants(rng, 2<<20)
		cfg := workload.Config{Hosts: 1, IntervalsPerEpoch: 50, LinkBandwidth: 1e9}
		cfg.Policy = membwPolicy(true)
		e := buildEngine(t, cfg, specs)
		col := invariant.NewCollector(invariant.Strict)
		stop := snapshot.ForWorkload(e).Audit(e.TB.Eng, col).Close
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d: strict violation in mixed-criticality rig: %v", seed, r)
				}
			}()
			e.RunMeasured(20*sim.Millisecond, 400*sim.Millisecond)
			stop()
		}()
		if r := col.Report(); r.Total != 0 || r.Events == 0 {
			t.Fatalf("seed %d: audit report off: %+v", seed, r)
		}
	}
}
