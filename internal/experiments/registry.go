package experiments

import (
	"fmt"
	"sort"
)

// Entry describes one reproducible figure.
type Entry struct {
	ID    string
	Title string
	Run   func(Options) (Result, error)
}

// registry maps figure ids to drivers.
var registry = map[string]Entry{}

// register adds a driver, whatever concrete result type it returns.
func register[R Result](id, title string, run func(Options) (R, error)) {
	registry[id] = Entry{ID: id, Title: title, Run: func(o Options) (Result, error) { return run(o) }}
}

func init() {
	register("fig1", "Latency distribution, Normal vs Interfered", Fig1)
	register("fig2", "Latency components vs number of servers", Fig2)
	register("fig3", "Latency vs buffer ratio with cap = 100/BR", Fig3)
	register("fig4", "Latency vs interferer CPU cap", Fig4)
	register("fig5", "FreeMarket timeline", Fig5)
	register("fig6", "Reso depletion under FreeMarket", Fig6)
	register("fig7", "IOShares timeline", Fig7)
	register("fig8", "Non-interference cases", Fig8)
	register("fig9", "Policies vs interfering buffer size", Fig9)
	register("abl-arb", "Ablation: link arbitration discipline", AblArb)
	register("abl-mech", "Ablation: CPU cap vs NIC rate limit", AblMech)
	register("abl-events", "Ablation: polling vs event-driven completions", AblEvents)
	register("abl-capacity", "Ablation: consolidation density within SLA", AblCapacity)
	register("abl-placement", "Ablation: interference-aware placement and live migration", AblPlacement)
	register("abl-faults", "Ablation: fault injection and graceful degradation", AblFaults)
	register("abl-workload", "Workload: p99 latency vs offered load (open loop)", AblWorkload)
	register("abl-workload-burst", "Workload: SLO attainment vs burstiness and shedding", AblWorkloadBurst)
	register("abl-workload-mix", "Workload: mixed tenant classes, SLO attainment per policy", AblWorkloadMix)
	register("abl-fungible", "Fungible: congestion-priced Reso economy vs IOShares/FreeMarket on a heterogeneous fleet", AblFungible)
	register("abl-restart", "Restart: crash-restart determinism and mid-run policy flip", AblRestart)
	register("abl-shardsched", "Shard: optimistic multi-shard placement, conflict rate vs shard count", AblShardSched)
	register("abl-simpar", "SimPar: host-sharded conservative simulation, determinism across shard counts", AblSimPar)
	register("abl-scaleset", "ScaleSet: gang-placed scale-sets, all-or-nothing admission vs shard count", AblScaleSet)
	register("abl-geodiurnal", "GeoDiurnal: phase-shifted diurnal zones over the simpar backbone, sun-chasing rebalancer", AblGeoDiurnal)
	register("abl-mixedcrit", "MixedCrit: memory-bandwidth third dimension on a mixed-criticality host", AblMixedCrit)
	register("softrt", "Extension: soft-real-time stream deadline misses", SoftRT)
}

// Lookup returns the entry for an id ("fig1".."fig9").
func Lookup(id string) (Entry, error) {
	e, ok := registry[id]
	if !ok {
		return Entry{}, fmt.Errorf("experiments: unknown figure %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all registered figure ids in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
