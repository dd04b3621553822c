// Package placement is the fleet layer above per-host ResEx: an
// interference-aware VM placement and live-migration scheduler for a
// cluster of hosts, each running its own ResEx/IBMon instance.
//
// Per-host ResEx can only *throttle* an interfering VM — the CPU cap is the
// hypervisor's single actuator over VMM-bypass I/O. The fleet layer adds
// the missing second actuator: deciding *where* VMs run, and *moving* them
// when throttling alone cannot restore an SLA. It has three parts:
//
//   - a placement pipeline — a feasibility rule, then a weighted score —
//     that places arriving VMs using per-host capacity, Reso headroom, and
//     IBMon-profiled interference pressure;
//   - a live-migration actuator modeled in the discrete-event engine:
//     pre-copy of the VM state as MTU-segmented fabric traffic (migration
//     contends with workload I/O on the real links), a stop-and-copy round
//     for dirtied state, and a configurable downtime;
//   - a rebalancer loop that consumes each host's ResEx epoch summaries
//     and evacuates interferers or victims when a VM stays interfered even
//     though the host policy has throttled the culprit to its floor.
//
// The cluster-state model and the pipeline itself live in
// internal/schedshard — the shared-state multi-shard scheduler built for
// thousand-host fleets — and fleet code uses those types directly, so it
// and the scale-out scheduler operate on the same values. Only the
// Strategy seam (pipeline or random baseline) is placement's own. The
// fleet publishes its live state into a schedshard.Store and commits every
// bind through it, which is also where placement-vs-headroom conflicts are
// counted. Hosts are scored on capacity, Reso headroom and interference,
// never on internal/exchange prices: the fleets the experiments build run
// IOShares, which keeps no trade book.
//
// Everything is deterministic: the same seed yields identical placement
// decisions and an identical migration schedule.
package placement

import (
	"fmt"

	"resex/internal/schedshard"
	"resex/internal/sim"
)

// ---------------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------------

// Strategy decides where a VM goes. PipelineStrategy is the real scheduler;
// RandomStrategy is the experiment baseline.
type Strategy interface {
	Name() string
	Pick(hosts []*schedshard.HostInfo, s schedshard.Spec, rng *sim.Rand) (*schedshard.HostInfo, error)
}

// PipelineStrategy runs one of schedshard's pipelines.
type PipelineStrategy struct {
	Label string
	P     schedshard.Pipeline
}

// Name implements Strategy.
func (ps PipelineStrategy) Name() string { return ps.Label }

// Pick implements Strategy.
func (ps PipelineStrategy) Pick(hosts []*schedshard.HostInfo, s schedshard.Spec, _ *sim.Rand) (*schedshard.HostInfo, error) {
	return ps.P.Pick(hosts, s)
}

// RandomStrategy picks uniformly among the hosts the pipelines' feasibility
// rule admits — the baseline every real scheduler must beat.
type RandomStrategy struct{}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "random" }

// Pick implements Strategy.
func (RandomStrategy) Pick(hosts []*schedshard.HostInfo, s schedshard.Spec, rng *sim.Rand) (*schedshard.HostInfo, error) {
	var feasible []*schedshard.HostInfo
	for _, h := range hosts {
		if schedshard.Feasible(h) {
			feasible = append(feasible, h)
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("placement: no feasible host for %q", s.Name)
	}
	return feasible[rng.Intn(len(feasible))], nil
}
