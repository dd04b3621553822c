package schedshard

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// refPenalty is the interference penalty's resident-VM walk as a plain
// loop over copied VMInfo values, the memo-free reference the memo must
// reproduce float for float.
func refPenalty(h *HostInfo, c penaltyClass) float64 {
	penalty := 0.0
	switch c {
	case classLatency:
		for _, vm := range h.VMs {
			if vm.EffectiveBuffer() >= LargeBuffer {
				penalty += staticPenalty
				if h.LinkBytesPerSec > 0 {
					penalty += vm.BytesPerSec / h.LinkBytesPerSec
				}
			}
		}
	case classBulk:
		for _, vm := range h.VMs {
			if vm.Spec.LatencySensitive {
				penalty += staticPenalty
			}
		}
	}
	return penalty
}

var memoBuffers = []int{4 << 10, 64 << 10, 256 << 10, 1 << 20, 2 << 20}

func randomSpec(rng *rand.Rand) Spec {
	return Spec{
		Name:             "vm",
		LatencySensitive: rng.Intn(2) == 0,
		BufferSize:       memoBuffers[rng.Intn(len(memoBuffers))],
	}
}

// randomFleet builds 1–24 hosts with random headroom, health, link rates
// and 0–6 resident VMs each, so penalties carry many float terms.
func randomFleet(rng *rand.Rand) []*HostInfo {
	hosts := make([]*HostInfo, 1+rng.Intn(24))
	for i := range hosts {
		total := 1 + rng.Intn(8)
		h := &HostInfo{
			Node: i + 1, TotalPCPUs: total, FreePCPUs: rng.Intn(total + 1),
			IOCommitted: rng.Float64(), ResoHeadroom: 1.2 * rng.Float64(),
		}
		if rng.Intn(4) != 0 {
			h.LinkBytesPerSec = 1e9 * (0.5 + rng.Float64())
		}
		if rng.Intn(10) == 0 {
			h.Health = HealthQuarantined
		}
		for v := rng.Intn(7); v > 0; v-- {
			h.VMs = append(h.VMs, VMInfo{
				Spec:        randomSpec(rng),
				BytesPerSec: 1e8 * rng.Float64(),
				BufferSize:  memoBuffers[rng.Intn(len(memoBuffers))],
			})
		}
		hosts[i] = h
	}
	return hosts
}

// checkPickMemo drives a lane through a random sequence of picks and local
// claims on a random fleet, then checks that every view host's memoised
// penalty, for every class, equals the reference walk exactly: claims move
// headroom only, so the memo the picks filled must still hold.
func checkPickMemo(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	snap := &Snapshot{Hosts: randomFleet(rng)}
	ln := &lane{pipe: NewInterferencePipeline()}
	ln.refresh(snap, rng.Intn(len(snap.Hosts)))
	for n := 1 + rng.Intn(16); n > 0; n-- {
		p := Pending{Spec: randomSpec(rng), VM: VMInfo{BytesPerSec: 1e6}}
		if i := ln.pick(p.Spec); i >= 0 {
			ln.claimFor(i, &p)
		}
	}
	for i, h := range ln.ptrs {
		for c := classNone; c < numClasses; c++ {
			if got, want := ln.memo.penalty(i, h, c), refPenalty(h, c); got != want {
				t.Fatalf("seed %d host %d class %d: memo penalty %v, reference %v", seed, h.Node, c, got, want)
			}
		}
	}
}

// TestPickMemoMatchesReference is the memo's property test over random
// fleets; FuzzPickMemo explores further seeds.
func TestPickMemoMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkPickMemo(t, seed)
	}
}

func FuzzPickMemo(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkPickMemo)
}

// TestPickMemoResetsEachRound: round 1 scores a latency-sensitive arrival
// on two clean hosts (memoising both latency penalties at zero) and binds a
// quiet bulk sender to node2. Round 2's latency-sensitive arrival must see
// node2's new penalty and land on node1; with round 1's stale zero, node2's
// lower link load would win.
func TestPickMemoResetsEachRound(t *testing.T) {
	store := NewStore()
	store.Publish(testHosts(2, 4))
	s := NewScheduler(store, Config{Shards: 1, Seed: 7})
	bulk := Spec{Name: "bulk", BufferSize: 2 << 20}
	s.Enqueue(Spec{Name: "ls1", LatencySensitive: true, BufferSize: 64 << 10}, lsVM("ls1", 50e6))
	s.Enqueue(bulk, VMInfo{Spec: bulk, BufferSize: 2 << 20})
	if rs := s.Round(); rs.Committed != 2 {
		t.Fatalf("round 1 = %+v, want both committed", rs)
	}
	if b := s.Bound(); b[0].Node != 1 || b[1].Node != 2 {
		t.Fatalf("round 1 binds %+v, want ls1 on node1 and bulk on node2", b)
	}
	s.Enqueue(Spec{Name: "ls2", LatencySensitive: true, BufferSize: 64 << 10}, lsVM("ls2", 50e6))
	if rs := s.Round(); rs.Committed != 1 {
		t.Fatalf("round 2 = %+v, want one commit", rs)
	}
	if b := s.Bound()[2]; b.Node != 1 {
		t.Fatalf("ls2 bound to node%d next to the bulk sender, want node1", b.Node)
	}
}

// TestRoundLeavesSnapshotUntouched: lanes score a published snapshot
// concurrently (Workers 2) and memoise penalties beside their private
// views; the snapshot's hosts, resident VMs included, must encode to the
// same bytes after the round as before. Under -race this also checks that
// no lane writes memory another lane reads.
func TestRoundLeavesSnapshotUntouched(t *testing.T) {
	hosts := testHosts(32, 4)
	for i, h := range hosts {
		switch i % 3 {
		case 0:
			h.VMs = []VMInfo{{Spec: Spec{Name: "b", BufferSize: 2 << 20}, BytesPerSec: 40e6, BufferSize: 2 << 20}}
		case 1:
			h.VMs = []VMInfo{lsVM("l", 3e6)}
		}
		h.FreePCPUs -= len(h.VMs)
	}
	store := NewStore()
	snap := store.Publish(hosts)
	ptrs := append([]*HostInfo(nil), snap.Hosts...)
	before, err := json.Marshal(snap.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(store, Config{Shards: 4, Workers: 2, Seed: 7, AvoidConflicts: true})
	for i := 0; i < 48; i++ {
		spec := Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}
		if i%3 == 2 {
			spec = Spec{Name: "bulk", BufferSize: 2 << 20}
		}
		s.Enqueue(spec, VMInfo{BytesPerSec: 5e6})
	}
	if rs := s.Round(); rs.Committed == 0 {
		t.Fatalf("round committed nothing: %+v", rs)
	}
	if store.Snapshot() == snap {
		t.Fatal("round installed no new snapshot")
	}
	after, err := json.Marshal(snap.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("published snapshot changed during a round:\nbefore %s\nafter  %s", before, after)
	}
	for i, h := range snap.Hosts {
		if h != ptrs[i] {
			t.Fatalf("published snapshot host %d pointer replaced", i)
		}
	}
}
