package workload

import (
	"fmt"

	"resex/internal/resex"
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
// the MinShare guard, and two identical tenants cap each other into a death
// spiral. Mean-over-SLA detection is the honest signal for this traffic.
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
