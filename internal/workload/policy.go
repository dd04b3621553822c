package workload

import (
	"fmt"

	"resex/internal/benchex"
	"resex/internal/resex"
	"resex/internal/sim"
)

// Policy maps a pricing-policy name to the constructor rigs on this engine
// hand to Config.Policy: "none" (managed: telemetry flows, charging at rate
// 1, caps lifted), "freemarket", "ioshares" or "fungible".
//
// IOShares runs with its deviation trigger disabled and a longer attribution
// warmup. The paper's closed-loop reporters emit near-constant latency, so
// jitter is evidence of interference there; open-loop Poisson arrivals carry
// inherent jitter (a handful of requests per 1 ms interval), and with it the
// std/mean trigger fires at 30% load, the noisy per-interval MTU counts clear
// IOShares' minShare guard, and two identical tenants cap each other into a
// death spiral. Mean-over-SLA detection is the honest signal for this traffic.
func Policy(name string) (func() resex.Policy, error) {
	switch name {
	case "none":
		return func() resex.Policy { return resex.NewPassive() }, nil
	case "freemarket":
		return func() resex.Policy { return resex.NewFreeMarket() }, nil
	case "ioshares":
		return func() resex.Policy {
			p := resex.NewIOShares()
			p.UseDeviation = false
			p.WarmupIntervals = 100
			return p
		}, nil
	case "fungible":
		return func() resex.Policy { return resex.NewFungible() }, nil
	}
	return nil, fmt.Errorf("workload: unknown policy %q (none, freemarket, ioshares, fungible)", name)
}

// The tenant catalog: the three traffic classes resexd's sessions and the
// workload drivers share. Each constructor returns a complete spec; callers
// add only what their rig varies (a Share, a memory meter).

// BaseSLAUs is the reporting app's SLA reference (µs): measured base
// latency (~234 µs) plus a small guard band. See EXPERIMENTS.md for the
// calibration run.
const BaseSLAUs = 240.0

// BulkBuffer is the bulk tenant's buffer, and the paper's default
// interfering VM buffer (2 MB).
const BulkBuffer = 2 << 20

// LatencyTenant is the latency class: one closed-loop 64 KB user, the
// paper's reporter shape. With a request always in flight, the in-VM
// agent's PTime spans client turnaround and request transit, so bulk
// congestion in either fabric direction reaches the manager's detection — an
// open-loop tenant under the idle-aware clock only exposes the response
// direction, and round-robin arbitration keeps that component below any
// usable trigger. Its SLA reference is BaseSLAUs and its SLO target sits at
// 1.5× — attainable when a bulk neighbour is held to its share, blown when
// it is not.
func LatencyTenant(name string, seed int64) TenantSpec {
	return TenantSpec{
		Name:   name,
		Closed: ClosedLoop{Concurrency: 1},
		SLO:    SLOSpec{P99Us: 1.5 * BaseSLAUs},
		SLAUs:  BaseSLAUs,
		Seed:   seed,
	}
}

// BulkTenant is the bulk class: a bursty 2 MB mover, MMPP2 arrivals at
// 150 req/s calm and 800 req/s in bursts (40 ms / 10 ms mean dwells), 16
// requests in flight and a pipelined server charging 2 ms per request. It
// has no SLA, so ResEx learns its baseline.
func BulkTenant(name string, seed int64) TenantSpec {
	return TenantSpec{
		Name:       name,
		BufferSize: BulkBuffer,
		Arrivals: &benchex.MMPP2{
			CalmRate: 150, BurstRate: 800,
			CalmDwell: 40 * sim.Millisecond, BurstDwell: 10 * sim.Millisecond,
		},
		Window:         16,
		ProcessTime:    2 * sim.Millisecond,
		PipelineServer: true,
		Seed:           seed,
	}
}

// OpenTenant is the open class: Poisson arrivals at rate req/s with 8
// requests in flight. Its SLA reference and SLO target are 4× BaseSLAUs: the
// light-load baseline of two such tenants sharing a host is ~250 µs p50, and
// with the bare BaseSLAUs the managers see a perpetual marginal violation,
// attribute it to the biggest sender — one of the symmetric tenants — and
// throttle the pair into a death spiral at 30% load. With 4× headroom
// repricing only engages past the knee, where the elevation is real.
func OpenTenant(name string, rate float64, seed int64) TenantSpec {
	return TenantSpec{
		Name:     name,
		Arrivals: benchex.Poisson{Rate: rate},
		Window:   8,
		SLO:      SLOSpec{P99Us: 4 * BaseSLAUs},
		SLAUs:    4 * BaseSLAUs,
		Seed:     seed,
	}
}
