package resex

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"resex/internal/schedshard"
	"resex/internal/sim"
)

// ---------------------------------------------------------------------------
// BenchmarkShardSched: the 2k-host placement round, before/after.
//
// Baseline: a cost-faithful replica of the pre-schedshard serial path — for
// every arriving VM, rebuild the full fleet snapshot (one cloned HostInfo
// plus a copied VM slice per host, exactly what Fleet.buildSnapshot
// allocated per placement decision) and run the old plugin-chain Select
// (an interface call per plugin, a fresh trace slice + sort.Slice) over it.
//
// Current: the schedshard store + one-shard scheduler — publish the fleet
// once, then place in waves of rounds against immutable snapshots with
// copy-on-write commits. One logical shard keeps the comparison
// apples-to-apples on placement quality (zero conflicts, serial
// semantics); the round machinery being measured is what multi-shard runs
// execute per shard.
//
// The baseline scores every (host, spec) pair. The current side scores
// each host once per penalty class per round and afterwards re-scores only
// the hosts it claims (the lane score cache). The measured difference is
// the per-placement O(hosts) rebuild, the per-call trace/sort allocations
// and the re-scoring the cache avoids. Ratios are same-process and
// machine-independent, so the benchmark checks them against fixed limits
// on any machine.
// ---------------------------------------------------------------------------

// shardBenchHosts/shardBenchVMs size the fleet. 2000 hosts is the ROADMAP
// target scale; 2500 VMs keeps the baseline's O(VMs·hosts) rebuild within
// benchmark-smoke time while filling ~4% of the fleet — rebuild cost does
// not depend on fill, so the ratio is representative.
const (
	shardBenchHosts = 2000
	shardBenchVMs   = 2500
	shardBenchWave  = 125
)

// minShardSpeedup is the placement-round floor. The recorded
// BENCH_shardsched.json holds 79.7x on the 2k-host fleet, the median of
// five runs on a shared, busy 2-CPU host (37.2–91.2x; quieter runs of the
// same scheduler gave 50.6–83.6x). 20x sits below the slowest run and
// still fails a lane that lost its score cache (4.5–5.1x without it) or a
// reintroduced per-placement rebuild (1x by construction).
const minShardSpeedup = 20.0

// maxAllocsPerPlacement budgets the copy-on-write commit path: a commit
// clones each touched host's HostInfo once per round, copies a published
// host's VMs on its first commit and appends in place after that, and the
// requeue/merge/commit buffers amortize to near zero, so steady state
// measures ~2 allocs/placement. The legacy full-rebuild path costs
// thousands; 16 cleanly separates the two.
const maxAllocsPerPlacement = 16.0

type shardBenchArrival struct {
	spec schedshard.Spec
	vm   schedshard.VMInfo
}

func shardBenchArrivals(seed int64) []shardBenchArrival {
	out := make([]shardBenchArrival, 0, shardBenchVMs)
	for i := 0; i < shardBenchVMs; i++ {
		var spec schedshard.Spec
		var vm schedshard.VMInfo
		if i%4 == 3 {
			spec = schedshard.Spec{Name: fmt.Sprintf("bulk%d", i), BufferSize: 2 << 20}
			vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 60e6, BufferSize: 2 << 20}
		} else {
			spec = schedshard.Spec{Name: fmt.Sprintf("ls%d", i), LatencySensitive: true, BufferSize: 64 << 10}
			vm = schedshard.VMInfo{Spec: spec, BytesPerSec: 2e6, BufferSize: 64 << 10}
		}
		out = append(out, shardBenchArrival{spec: spec, vm: vm})
	}
	rng := sim.NewRand(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func shardBenchFleet() []*schedshard.HostInfo {
	hosts := make([]*schedshard.HostInfo, shardBenchHosts)
	for i := range hosts {
		hosts[i] = &schedshard.HostInfo{
			Node: i + 1, FreePCPUs: 31, TotalPCPUs: 31,
			LinkBytesPerSec: 1e9, ResoHeadroom: 1,
		}
	}
	return hosts
}

// legacyPipeline replicates the pre-schedshard Pipeline.Select hot path
// exactly: the interference pipeline as a chain of filter and score plugins
// behind interfaces, a fresh trace allocation per call and a sort.Slice
// (closure + reflect swapper) over it.
type legacyPipeline struct {
	filters []legacyFilter
	scorers []legacyWeighted
}

type legacyFilter interface {
	Filter(h *schedshard.HostInfo, s schedshard.Spec) bool
}

type legacyScorer interface {
	Score(h *schedshard.HostInfo, s schedshard.Spec) float64
}

type legacyWeighted struct {
	plugin legacyScorer
	weight float64
}

// legacyHostScore is one host's entry in the legacy decision trace.
type legacyHostScore struct {
	Node     int
	Feasible bool
	Score    float64
}

type legacyFitsPCPUs struct{}

func (legacyFitsPCPUs) Filter(h *schedshard.HostInfo, _ schedshard.Spec) bool { return h.FreePCPUs > 0 }

// legacyInterferenceAware re-derives its parameters and walks the host's
// resident VMs for both penalty sums on every call, as the plugin did.
type legacyInterferenceAware struct {
	LargeBuffer   int
	StaticPenalty float64
}

func (ia legacyInterferenceAware) Score(h *schedshard.HostInfo, s schedshard.Spec) float64 {
	large, static := ia.LargeBuffer, ia.StaticPenalty
	if large <= 0 {
		large = 256 << 10
	}
	if static <= 0 {
		static = 1
	}
	if !s.LatencySensitive && s.BufferSize < large {
		return 1
	}
	lat, bulk := 0.0, 0.0
	for i := range h.VMs {
		vm := &h.VMs[i]
		if vm.EffectiveBuffer() >= large {
			lat += static
			if h.LinkBytesPerSec > 0 {
				lat += vm.BytesPerSec / h.LinkBytesPerSec
			}
		}
		if vm.Spec.LatencySensitive {
			bulk += static
		}
	}
	if s.LatencySensitive {
		return 1 / (1 + lat)
	}
	return 1 / (1 + bulk)
}

type legacyResoHeadroom struct{}

func (legacyResoHeadroom) Score(h *schedshard.HostInfo, _ schedshard.Spec) float64 {
	free := 1 - h.IOCommitted
	if free < 0 {
		free = 0
	}
	hr := h.ResoHeadroom
	if hr > 1 {
		hr = 1
	}
	return 0.5*free + 0.5*hr
}

type legacySpreadByCPU struct{}

func (legacySpreadByCPU) Score(h *schedshard.HostInfo, _ schedshard.Spec) float64 {
	if h.TotalPCPUs == 0 {
		return 0
	}
	return float64(h.FreePCPUs) / float64(h.TotalPCPUs)
}

func newLegacyInterferencePipeline() *legacyPipeline {
	return &legacyPipeline{
		filters: []legacyFilter{legacyFitsPCPUs{}},
		scorers: []legacyWeighted{
			{legacyInterferenceAware{}, 1},
			{legacyResoHeadroom{}, 0.3},
			{legacySpreadByCPU{}, 0.5},
		},
	}
}

func (p *legacyPipeline) Select(hosts []*schedshard.HostInfo, s schedshard.Spec) (*schedshard.HostInfo, []legacyHostScore) {
	var best *schedshard.HostInfo
	bestScore := 0.0
	trace := make([]legacyHostScore, 0, len(hosts))
	for _, h := range hosts {
		hs := legacyHostScore{Node: h.Node, Feasible: true}
		for _, f := range p.filters {
			if !f.Filter(h, s) {
				hs.Feasible = false
				break
			}
		}
		if hs.Feasible {
			for _, ws := range p.scorers {
				hs.Score += ws.weight * ws.plugin.Score(h, s)
			}
			if best == nil || hs.Score > bestScore ||
				(hs.Score == bestScore && h.Node < best.Node) {
				best, bestScore = h, hs.Score
			}
		}
		trace = append(trace, hs)
	}
	sort.Slice(trace, func(i, j int) bool { return trace[i].Node < trace[j].Node })
	return best, trace
}

// measureShardBaseline: rebuild-the-world serial placement.
func measureShardBaseline(arrivals []shardBenchArrival) (elapsed time.Duration, mallocs uint64, placed int) {
	master := shardBenchFleet()
	pipe := newLegacyInterferencePipeline()
	rebuild := func() []*schedshard.HostInfo {
		out := make([]*schedshard.HostInfo, len(master))
		for i, h := range master {
			c := *h
			c.VMs = append([]schedshard.VMInfo(nil), h.VMs...)
			out[i] = &c
		}
		return out
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, a := range arrivals {
		snap := rebuild()
		best, _ := pipe.Select(snap, a.spec)
		if best == nil {
			continue
		}
		h := master[best.Node-1]
		h.FreePCPUs--
		h.IOCommitted += a.vm.BytesPerSec / h.LinkBytesPerSec
		h.VMs = append(h.VMs, a.vm)
		placed++
	}
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, placed
}

// measureShardCurrent: snapshot store + one-shard scheduler in waves.
func measureShardCurrent(arrivals []shardBenchArrival) (elapsed time.Duration, mallocs uint64, placed int) {
	store := schedshard.NewStore()
	store.Publish(shardBenchFleet())
	sched := schedshard.NewScheduler(store, schedshard.Config{Shards: 1, Workers: 1, Seed: 7})
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for lo := 0; lo < len(arrivals); lo += shardBenchWave {
		hi := lo + shardBenchWave
		if hi > len(arrivals) {
			hi = len(arrivals)
		}
		for _, a := range arrivals[lo:hi] {
			sched.Enqueue(a.spec, a.vm)
		}
		sched.Round()
	}
	sched.Run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, len(sched.Bound())
}

// BenchmarkShardSched measures the placement round at fleet scale, records
// BENCH_shardsched.json, and fails under minShardSpeedup or over
// maxAllocsPerPlacement.
func BenchmarkShardSched(b *testing.B) {
	var recs []benchRecord
	for i := 0; i < b.N; i++ {
		arrivals := shardBenchArrivals(7)
		lElapsed, lMallocs, lPlaced := measureShardBaseline(arrivals)
		cElapsed, cMallocs, cPlaced := measureShardCurrent(arrivals)
		if lPlaced != len(arrivals) || cPlaced != len(arrivals) {
			b.Fatalf("placed baseline=%d current=%d, want %d", lPlaced, cPlaced, len(arrivals))
		}
		per := func(v float64) float64 { return v / float64(len(arrivals)) }
		lNs, cNs := per(float64(lElapsed.Nanoseconds())), per(float64(cElapsed.Nanoseconds()))
		cAllocs := per(float64(cMallocs))
		recs = []benchRecord{{
			Name: "shardsched.speedup", Unit: "ns/placement",
			Baseline: lNs, Current: cNs, Value: lNs / cNs,
			Floor: limit(minShardSpeedup),
			Note:  "snapshot store + 1 shard vs rebuild+select, 2000 hosts, 2500 placements",
		}, {
			Name: "shardsched.allocs_per_placement", Unit: "allocs/placement",
			Baseline: per(float64(lMallocs)), Current: cAllocs, Value: cAllocs,
			Ceiling: limit(maxAllocsPerPlacement),
			Note:    "copy-on-write commit path: zero-alloc hot path plus per-round host clones",
		}}
	}
	writeBenchRecords(b, "BENCH_shardsched.json", recs)
}
