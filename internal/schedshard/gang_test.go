package schedshard

import (
	"fmt"
	"testing"
)

// gangVM builds a latency-sensitive member VMInfo sending bps.
func gangVM(bps float64) VMInfo {
	spec := Spec{Name: "g", LatencySensitive: true, BufferSize: 64 << 10}
	return VMInfo{Spec: spec, BytesPerSec: bps, BufferSize: 64 << 10}
}

// TestEnqueueGangNamesAndKeys pins the gang enqueue contract: consecutive
// keys, the gang id is the first member's key, members named "<base>/<i>",
// and n < 1 enqueues nothing.
func TestEnqueueGangNamesAndKeys(t *testing.T) {
	s := NewScheduler(NewStore(), Config{})
	s.Enqueue(Spec{Name: "pre"}, VMInfo{})
	gang := s.EnqueueGang(Spec{Name: "web"}, gangVM(1e6), 3)
	if gang != 2 {
		t.Fatalf("gang id = %d, want 2 (first member's key)", gang)
	}
	if s.PendingLen() != 4 {
		t.Fatalf("pending %d, want 4", s.PendingLen())
	}
	for i, p := range s.pending[1:] {
		wantName := fmt.Sprintf("web/%d", i)
		if p.Spec.Name != wantName || p.VM.Spec.Name != wantName {
			t.Errorf("member %d named %q/%q, want %q", i, p.Spec.Name, p.VM.Spec.Name, wantName)
		}
		if p.Key != uint64(2+i) || p.Gang != gang || p.GangSize != 3 {
			t.Errorf("member %d = key %d gang %d size %d, want %d/%d/3", i, p.Key, p.Gang, p.GangSize, 2+i, gang)
		}
	}
	if got := s.EnqueueGang(Spec{Name: "zero"}, VMInfo{}, 0); got != 0 {
		t.Errorf("EnqueueGang(n=0) = %d, want 0", got)
	}
	if s.PendingLen() != 4 {
		t.Errorf("n=0 enqueue changed the queue: %d", s.PendingLen())
	}
}

// TestCommitGangRollbackExact drives CommitRound directly with a singleton
// that fits and a gang that cannot (its tail member finds no headroom): the
// singleton commits, the whole gang conflicts, and the hosts the gang
// partially claimed are restored to their exact pre-group state — values,
// VM lists, commitment fractions.
func TestCommitGangRollbackExact(t *testing.T) {
	st := NewStore()
	st.Publish(testHosts(2, 2))
	// Singleton key 1 onto node 1 (fits), then a 4-member gang across both
	// hosts: members onto nodes 1,1,2,2 — but node 1 has only 1 PCPU left
	// after the singleton, so member 2 fails and the gang must unwind from
	// both hosts.
	binds := []Bind{
		{Key: 1, Node: 1, VM: lsVM("solo", 0.1e9)},
		{Key: 2, Node: 1, VM: gangVM(0.2e9), Gang: 2, GangSize: 4},
		{Key: 3, Node: 1, VM: gangVM(0.2e9), Gang: 2, GangSize: 4},
		{Key: 4, Node: 2, VM: gangVM(0.2e9), Gang: 2, GangSize: 4},
		{Key: 5, Node: 2, VM: gangVM(0.2e9), Gang: 2, GangSize: 4},
	}
	committed, conflicted := st.CommitRound(binds)
	if len(committed) != 1 || committed[0].Key != 1 {
		t.Fatalf("committed %v, want exactly the singleton", committed)
	}
	if len(conflicted) != 4 {
		t.Fatalf("conflicted %d binds, want the whole gang (4)", len(conflicted))
	}
	snap := st.Snapshot()
	h1, h2 := snap.Host(1), snap.Host(2)
	if h1.FreePCPUs != 1 || len(h1.VMs) != 1 || h1.VMs[0].Spec.Name != "solo" {
		t.Errorf("node1 after rollback: free=%d vms=%v, want 1 PCPU and only solo", h1.FreePCPUs, h1.VMs)
	}
	if want := 0.1e9 / 1e9; h1.IOCommitted != want {
		t.Errorf("node1 IOCommitted = %v, want exact %v (no float residue)", h1.IOCommitted, want)
	}
	if h2.FreePCPUs != 2 || len(h2.VMs) != 0 || h2.IOCommitted != 0 {
		t.Errorf("node2 after rollback: free=%d vms=%d io=%v, want pristine 2/0/0", h2.FreePCPUs, len(h2.VMs), h2.IOCommitted)
	}
	if st.Commits() != 1 || st.Conflicts() != 4 {
		t.Errorf("commits=%d conflicts=%d, want 1/4", st.Commits(), st.Conflicts())
	}
}

// TestCommitPartialGangRejectedWholesale: a gang presented with fewer
// members than its declared GangSize is rejected without touching host
// state — the defense against direct CommitRound callers (and the fuzzer).
func TestCommitPartialGangRejectedWholesale(t *testing.T) {
	st := NewStore()
	st.Publish(testHosts(1, 4))
	prev := st.Snapshot()
	committed, conflicted := st.CommitRound([]Bind{
		{Key: 1, Node: 1, VM: gangVM(1e6), Gang: 1, GangSize: 3},
		{Key: 2, Node: 1, VM: gangVM(1e6), Gang: 1, GangSize: 3},
	})
	if len(committed) != 0 || len(conflicted) != 2 {
		t.Fatalf("committed=%d conflicted=%d, want 0/2", len(committed), len(conflicted))
	}
	if st.Snapshot() != prev {
		t.Error("partial-gang rejection installed a new snapshot")
	}
}

// TestGangConflictRequeuesWholeWithFields: when a gang loses at commit, all
// its members requeue together with Gang/GangSize intact, and the gang
// places whole on a later round.
func TestGangConflictRequeuesWholeWithFields(t *testing.T) {
	seed := seedSplittingKeys(t)
	store := NewStore()
	store.Publish(testHosts(2, 2))
	s := NewScheduler(store, Config{Shards: 2, Seed: seed})
	// Key 1: a singleton on one shard; keys 2-3: a gang on the other. Both
	// shards see two empty 2-PCPU hosts and pick node 1 first — the
	// singleton (lower key) wins its slot, and whether the gang collides
	// depends on where its members land; drive rounds until the gang lands
	// and then check it landed whole.
	s.Enqueue(Spec{Name: "solo", LatencySensitive: true}, lsVM("solo", 1e6))
	gang := s.EnqueueGang(Spec{Name: "web", LatencySensitive: true}, gangVM(1e6), 2)
	s.Round()
	if s.PendingLen() > 0 {
		// The gang conflicted: every member must be back with fields intact.
		if s.PendingLen() != 2 {
			t.Fatalf("pending %d after conflicted round, want the whole gang (2)", s.PendingLen())
		}
		for _, p := range s.pending {
			if p.Gang != gang || p.GangSize != 2 {
				t.Fatalf("requeued member lost gang fields: %+v", p)
			}
		}
		s.Run()
	}
	gs := s.Gangs()
	if gs.Placed != 1 || gs.Partial != 0 || gs.Failed != 0 {
		t.Fatalf("gang stats %+v, want placed=1", gs)
	}
	members := 0
	for _, b := range s.Bound() {
		if b.Gang == gang {
			members++
		}
	}
	if members != 2 {
		t.Fatalf("gang bound %d members, want 2", members)
	}
}

// TestGangLargerThanFleetFailsWhole: a gang that can never fit starves
// every round, the zero-commit round declares it failed, and the failure is
// counted once per gang, not per member.
func TestGangLargerThanFleetFailsWhole(t *testing.T) {
	store := NewStore()
	store.Publish(testHosts(2, 1))
	s := NewScheduler(store, Config{})
	s.EnqueueGang(Spec{Name: "big", LatencySensitive: true}, gangVM(1e6), 4)
	s.Run()
	gs := s.Gangs()
	if gs.Failed != 1 || gs.Placed != 0 || gs.Partial != 0 {
		t.Fatalf("gang stats %+v, want failed=1", gs)
	}
	if len(s.Bound()) != 0 || len(s.Failed()) != 4 {
		t.Fatalf("bound=%d failed=%d, want 0 binds and 4 failed members", len(s.Bound()), len(s.Failed()))
	}
}

// FuzzGangCommit feeds CommitRound adversarial bind programs — random
// fleets, random gang shapes, corrupted gang declarations, out-of-range
// nodes, full hosts — and checks the store's gang contract on every
// input: each gang's committed-member count is exactly 0 or its declared
// GangSize, every bind comes back exactly once, and the installed
// snapshot's per-host accounting stays consistent.
func FuzzGangCommit(f *testing.F) {
	f.Add([]byte{3, 2, 0x03, 1, 0, 0x05, 2, 1})                // two small gangs
	f.Add([]byte{1, 1, 0x07, 0, 0, 0x02, 9, 0})                // tight host, big gang, stray singleton
	f.Add([]byte{4, 0xC3, 0x05, 1, 1, 0x03, 2, 0, 0x01, 7, 3}) // full-host bit
	f.Add([]byte{2, 0x82, 0x09, 0, 1, 0x09, 1, 1})             // duplicate targets
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		nHosts := 1 + int(data[0]%8)
		free := 1 + int(data[1]&0x3f%6)
		hosts := testHosts(nHosts, free)
		if data[1]&0x40 != 0 {
			hosts[0].FreePCPUs, hosts[0].TotalPCPUs = 0, 0 // no guest PCPU: infeasible
		}
		st := NewStore()
		st.Publish(hosts)

		var binds []Bind
		key := uint64(0)
		for i := 2; i+2 < len(data); i += 3 {
			b0, b1, b2 := data[i], data[i+1], data[i+2]
			node := func(m byte) int { return 1 + int(b1+m)%(nHosts+1) } // may be absent
			vm := gangVM(float64(b2) * 1e6)
			if b0&1 == 0 {
				key++
				binds = append(binds, Bind{Key: key, Node: node(0), VM: vm})
				continue
			}
			size := 1 + int(b0>>1)%5
			declared := size
			if b2&1 == 1 {
				declared = size + 1 // corrupt: present the gang short-handed
			}
			gang := key + 1
			for m := 0; m < size; m++ {
				key++
				binds = append(binds, Bind{Key: key, Node: node(byte(m)), VM: vm,
					Gang: gang, GangSize: declared})
			}
		}
		committed, conflicted := st.CommitRound(binds)
		if len(committed)+len(conflicted) != len(binds) {
			t.Fatalf("bind partition leak: %d committed + %d conflicted != %d in",
				len(committed), len(conflicted), len(binds))
		}
		declared := make(map[uint64]int)
		for _, b := range binds {
			if b.Gang != 0 {
				declared[b.Gang] = b.GangSize
			}
		}
		counts := make(map[uint64]int)
		for _, b := range committed {
			if b.Gang != 0 {
				counts[b.Gang]++
			}
		}
		for g, n := range counts {
			if n != declared[g] {
				t.Fatalf("gang %d committed %d of declared %d — partial commit", g, n, declared[g])
			}
		}
		resident := 0
		for _, h := range st.Snapshot().Hosts {
			if h.FreePCPUs < 0 {
				t.Fatalf("node %d FreePCPUs went negative: %d", h.Node, h.FreePCPUs)
			}
			if h.TotalPCPUs-h.FreePCPUs != len(h.VMs) {
				t.Fatalf("node %d accounting: total %d - free %d != %d resident VMs",
					h.Node, h.TotalPCPUs, h.FreePCPUs, len(h.VMs))
			}
			resident += len(h.VMs)
		}
		if resident != len(committed) {
			t.Fatalf("%d VMs resident, %d binds committed", resident, len(committed))
		}
	})
}
