package schedshard

import (
	"testing"

	"resex/internal/exchange"
)

func contaminatedFleet() []*HostInfo {
	hosts := testHosts(8, 8)
	// Host 1 carries a bulk interferer; host 3 a latency-sensitive tenant.
	bulkSpec := Spec{Name: "bulk0", BufferSize: 2 << 20}
	hosts[0].VMs = []VMInfo{{Spec: bulkSpec, BytesPerSec: 60e6, BufferSize: 2 << 20}}
	hosts[0].FreePCPUs--
	hosts[0].IOCommitted = 60e6 / 1e9
	hosts[2].VMs = []VMInfo{lsVM("ls0", 2e6)}
	hosts[2].FreePCPUs--
	hosts[2].IOCommitted = 2e6 / 1e9
	return hosts
}

// TestSelectZeroAllocHotPath: the serial placement decision, Pick, must
// allocate nothing per call on a feasible fleet.
func TestSelectZeroAllocHotPath(t *testing.T) {
	pipe := NewInterferencePipeline()
	hosts := contaminatedFleet()
	spec := Spec{Name: "probe", LatencySensitive: true, BufferSize: 64 << 10}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := pipe.Pick(hosts, spec); err != nil {
			t.Error(err)
		}
	}); allocs != 0 {
		t.Errorf("Pick allocates %.1f times per call, want 0", allocs)
	}
}

// TestPickZeroAlloc: the shard hot path must allocate nothing from the
// first call (it keeps no trace at all).
func TestPickZeroAlloc(t *testing.T) {
	pipe := NewInterferencePipeline()
	hosts := contaminatedFleet()
	spec := Spec{Name: "probe", LatencySensitive: true, BufferSize: 64 << 10}
	if allocs := testing.AllocsPerRun(100, func() {
		if pipe.pick(hosts, spec, 3) < 0 {
			t.Error("no feasible host")
		}
	}); allocs != 0 {
		t.Errorf("pick allocates %.1f times per call, want 0", allocs)
	}
}

// TestPickRotatedTieBreak: on an all-equal fleet every host ties, so the
// winner is exactly the rotation start — distinct offsets yield distinct
// hosts, which is the conflict-avoidance mechanism.
func TestPickRotatedTieBreak(t *testing.T) {
	pipe := NewSpreadPipeline()
	hosts := testHosts(8, 4)
	spec := Spec{Name: "probe", LatencySensitive: true, BufferSize: 64 << 10}
	for off := 0; off < len(hosts); off++ {
		idx := pipe.pick(hosts, spec, off)
		if idx != off {
			t.Errorf("off=%d picked index %d, want %d (rotation start)", off, idx, off)
		}
	}
	// Infeasible everywhere -> -1.
	for _, h := range hosts {
		h.FreePCPUs = 0
	}
	if idx := pipe.pick(hosts, spec, 3); idx != -1 {
		t.Errorf("exhausted fleet picked index %d, want -1", idx)
	}
}

// TestRateWeightedHeadroomDiscountsByPrice: identical raw headroom, but one
// host quotes a congested fabric — the cheap host must score higher, and an
// unpriced host must score exactly its plain headroom.
func TestRateWeightedHeadroomDiscountsByPrice(t *testing.T) {
	cheap := &HostInfo{Node: 1, FreePCPUs: 4, TotalPCPUs: 8, LinkBytesPerSec: 1e9}
	dear := &HostInfo{Node: 2, FreePCPUs: 4, TotalPCPUs: 8, LinkBytesPerSec: 1e9}
	dear.Prices[exchange.DimFabric] = 8

	sCheap, sDear := rateWeightedHeadroom(cheap), rateWeightedHeadroom(dear)
	if sCheap <= sDear {
		t.Fatalf("congested fabric not discounted: cheap %.3f <= dear %.3f", sCheap, sDear)
	}
	// Unpriced host (all quotes zero -> floor 1): plain 50/50 headroom.
	if want := 0.5*0.5 + 0.5*1; sCheap != want {
		t.Fatalf("unpriced score = %.3f, want %.3f", sCheap, want)
	}
	for _, h := range []*HostInfo{cheap, dear} {
		if s := rateWeightedHeadroom(h); s < 0 || s > 1 {
			t.Fatalf("score %.3f out of [0,1]", s)
		}
	}
}

// TestRatePipelinePrefersCheapHost: among interference-safe hosts with equal
// raw capacity, the rate pipeline lands load on the one quoting base prices.
func TestRatePipelinePrefersCheapHost(t *testing.T) {
	hosts := testHosts(4, 6)
	for _, h := range hosts[1:] {
		h.Prices[exchange.DimFabric] = 3 // every host but node1 is congested
	}
	pipe := NewRatePipeline()
	spec := Spec{Name: "bulk", BufferSize: 2 << 20}
	best, err := pipe.Pick(hosts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if best.Node != 1 {
		t.Fatalf("rate pipeline picked node%d, want the cheap node1", best.Node)
	}
	// Interference still dominates price: make the cheap host fatal for a
	// latency-sensitive arrival and it must lose to a pricier clean host.
	hosts[0].VMs = []VMInfo{{Spec: Spec{Name: "bulk0", BufferSize: 2 << 20}, BytesPerSec: 100e6, BufferSize: 2 << 20}}
	ls := Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}
	best, err = pipe.Pick(hosts, ls)
	if err != nil {
		t.Fatal(err)
	}
	if best.Node == 1 {
		t.Fatal("price beat interference avoidance: latency VM placed next to a bulk sender")
	}
}
