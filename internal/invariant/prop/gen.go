// Package prop is the property/metamorphic layer on top of the invariant
// auditor: seed-driven generators for clusters, tenant mixes and fault plans.
// The tests attach the auditor to a generated rig through the same
// snapshot.Source wiring the experiment drivers use, and assert *relations
// between runs* — scale the offered load to zero and nothing may be charged,
// permute tenant declaration order and per-tenant results must only
// relabel, double the horizon and the epoch ledger prefix must not move —
// rather than absolute numbers, which makes them robust to retuning while
// still pinning the simulator's physics.
//
// Every generator is a pure function of the *sim.Rand it is handed, so a
// failing property reproduces from its seed alone.
package prop

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/faults"
	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/workload"
)

// Cluster draws a small multi-tenant rig shape: one to three worker hosts,
// with epochs short enough (50 ms) that managed runs cross several epoch
// boundaries inside a property test's horizon. Callers pick the policy —
// whether a rig is managed is a test axis, not a random one.
func Cluster(rng *sim.Rand) workload.Config {
	return workload.Config{
		Hosts:             1 + rng.Intn(3),
		IntervalsPerEpoch: 50,
	}
}

// Tenants draws n tenant specs spanning the engine's surface: open loops
// (Poisson, bursty MMPP) and closed loops, mixed buffer sizes, SLA-backed
// reporters and silent bulk movers, and the occasional queue cap. Rates are kept light enough that a 1-host rig is not driven to
// saturation — the properties are about bookkeeping, not capacity.
func Tenants(rng *sim.Rand, n int) []workload.TenantSpec {
	sizes := []int{4 << 10, 16 << 10, 64 << 10}
	specs := make([]workload.TenantSpec, 0, n)
	for i := 0; i < n; i++ {
		spec := workload.TenantSpec{
			Name:       fmt.Sprintf("t%d", i),
			BufferSize: sizes[rng.Intn(len(sizes))],
			Seed:       1 + rng.Int63n(1<<30),
		}
		switch rng.Intn(3) {
		case 0:
			spec.Closed = workload.ClosedLoop{Concurrency: 1 + rng.Intn(3)}
			// Draws no field uses, kept so every later draw stays in place.
			rng.Intn(4)
			rng.Intn(2)
		case 1:
			spec.Arrivals = benchex.Poisson{Rate: 100 + float64(rng.Intn(300))}
		default:
			spec.Arrivals = &benchex.MMPP2{
				CalmRate:   50 + float64(rng.Intn(100)),
				BurstRate:  400 + float64(rng.Intn(400)),
				CalmDwell:  sim.Time(10+rng.Intn(20)) * sim.Millisecond,
				BurstDwell: sim.Time(2+rng.Intn(8)) * sim.Millisecond,
			}
		}
		if rng.Intn(2) == 0 {
			spec.SLAUs = 200 + float64(rng.Intn(400))
		}
		if spec.Arrivals != nil && rng.Intn(2) == 0 {
			spec.QueueCap = 4 + rng.Intn(28)
		}
		specs = append(specs, spec)
	}
	return specs
}

// MixedTenants draws a mixed-criticality tenant pair sharing one host: a
// latency-sensitive critical tenant whose memory traffic is a page per
// request, and a best-effort bulk mover whose per-request memory footprint
// is drawn from memSizes — the third-dimension demand the DimMemBW economy
// prices. With every footprint zero the rig degenerates to the ordinary
// two-dimension fleet, which is exactly the axis the membw no-op metamorphic
// relation flips.
func MixedTenants(rng *sim.Rand, bulkMemPerReq int) []workload.TenantSpec {
	return []workload.TenantSpec{
		{
			Name:           "crit",
			Closed:         workload.ClosedLoop{Concurrency: 1 + rng.Intn(2)},
			SLAUs:          250 + float64(rng.Intn(200)),
			Share:          3,
			MemBytesPerReq: 4 << 10,
			Seed:           1 + rng.Int63n(1<<30),
		},
		{
			Name:           "bulk",
			BufferSize:     64 << 10,
			Arrivals:       benchex.Poisson{Rate: 150 + float64(rng.Intn(150))},
			Window:         8,
			MemBytesPerReq: bulkMemPerReq,
			Seed:           1 + rng.Int63n(1<<30),
		},
	}
}

// ScaleSets draws n scale-set arrivals for the gang scheduler: sizes from a
// couple of members up to chunky sets that must span hosts, a mix of
// latency-sensitive web tiers and big-buffer bulk tiers.
func ScaleSets(rng *sim.Rand, n int) []workload.ScaleSetSpec {
	sets := make([]workload.ScaleSetSpec, 0, n)
	for i := 0; i < n; i++ {
		s := workload.ScaleSetSpec{
			Name:             fmt.Sprintf("set%d", i),
			Size:             2 + rng.Intn(12),
			LatencySensitive: true,
			BufferSize:       64 << 10,
			BytesPerSec:      2e6,
		}
		if rng.Intn(3) == 0 {
			s.LatencySensitive = false
			s.BufferSize = 2 << 20
			s.BytesPerSec = 60e6
		}
		sets = append(sets, s)
	}
	return sets
}

// GangFleet draws the synthetic host fleet a gang-placement property runs
// against: a host count and per-host headroom tight enough that gangs
// genuinely fight for PCPUs across shards, and every host with an uplink.
func GangFleet(rng *sim.Rand) []*schedshard.HostInfo {
	n := 4 + rng.Intn(12)
	free := 4 + rng.Intn(28)
	hosts := make([]*schedshard.HostInfo, n)
	for i := range hosts {
		hosts[i] = &schedshard.HostInfo{
			Node: i + 1, FreePCPUs: free, TotalPCPUs: free,
			LinkBytesPerSec: 1e9, ResoHeadroom: 1,
		}
	}
	return hosts
}

// FaultPlan draws a correlated storm schedule over the given hosts and
// window: the intensity and which optional layers (stalls, invalidations,
// flaps, migration-failure windows) fire are themselves randomized, so
// different property seeds exercise different corners of the injector.
func FaultPlan(rng *sim.Rand, hosts []int, start, horizon sim.Time) faults.Schedule {
	cfg := faults.GenConfig{
		Hosts:        hosts,
		Start:        start,
		Horizon:      horizon,
		StormsPerSec: 8 + float64(rng.Intn(20)),
	}
	// -1 disables a layer; the generator treats 0 as "use the default".
	pick := func() int {
		if rng.Intn(3) == 0 {
			return -1
		}
		return 1 + rng.Intn(4)
	}
	cfg.StallEvery = pick()
	cfg.InvalidateEvery = pick()
	cfg.MigrateFailEvery = pick()
	if rng.Intn(2) == 0 {
		cfg.FlapEvery = 2 + rng.Intn(3)
	}
	return faults.Generate(rng.Int63n(1<<31), cfg)
}
