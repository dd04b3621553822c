package schedshard

import "testing"

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
