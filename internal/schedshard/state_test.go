package schedshard

import (
	"testing"
)

func testHosts(n, free int) []*HostInfo {
	hosts := make([]*HostInfo, n)
	for i := range hosts {
		hosts[i] = &HostInfo{
			Node: i + 1, FreePCPUs: free, TotalPCPUs: free,
			LinkBytesPerSec: 1e9, ResoHeadroom: 1,
		}
	}
	return hosts
}

func lsVM(name string, bps float64) VMInfo {
	spec := Spec{Name: name, LatencySensitive: true, BufferSize: 64 << 10}
	return VMInfo{Spec: spec, BytesPerSec: bps, BufferSize: 64 << 10}
}

// TestStoreCommitCopyOnWrite commits a bind and checks the snapshot the
// caller already held is untouched: same host pointer for untouched nodes, a
// fresh clone for the touched one, and the old snapshot's values intact.
func TestStoreCommitCopyOnWrite(t *testing.T) {
	st := NewStore()
	st.Publish(testHosts(3, 4))
	prev := st.Snapshot()
	prevHost2 := prev.Host(2)

	committed, conflicted := st.CommitRound([]Bind{{Key: 1, Node: 2, VM: lsVM("ls0", 2e6)}})
	if len(committed) != 1 || len(conflicted) != 0 {
		t.Fatalf("committed=%d conflicted=%d, want 1/0", len(committed), len(conflicted))
	}
	next := st.Snapshot()
	if next == prev || next.Version != prev.Version+1 {
		t.Fatalf("commit did not install a new snapshot version (%d -> %d)", prev.Version, next.Version)
	}
	// The held snapshot is immutable: the touched host kept its old values.
	if prevHost2.FreePCPUs != 4 || len(prevHost2.VMs) != 0 {
		t.Errorf("previous snapshot mutated: free=%d vms=%d, want 4/0", prevHost2.FreePCPUs, len(prevHost2.VMs))
	}
	if prev.Host(2) != prevHost2 {
		t.Error("previous snapshot host pointer changed")
	}
	// The new snapshot cloned only the touched host.
	if next.Host(2) == prevHost2 {
		t.Error("touched host was not cloned")
	}
	if next.Host(1) != prev.Host(1) || next.Host(3) != prev.Host(3) {
		t.Error("untouched hosts were cloned (should be shared)")
	}
	if h := next.Host(2); h.FreePCPUs != 3 || len(h.VMs) != 1 || h.VMs[0].Spec.Name != "ls0" {
		t.Errorf("bind not applied: free=%d vms=%d", h.FreePCPUs, len(h.VMs))
	}
	if got := next.Host(2).IOCommitted; got != 2e6/1e9 {
		t.Errorf("IOCommitted = %g, want %g", got, 2e6/1e9)
	}
}

// TestStoreCommitConflictOnExhaustedHeadroom funnels two binds into a host
// with one free PCPU: the lower key wins, the higher is a conflict, and both
// returned slices are in ascending key order.
func TestStoreCommitConflictOnExhaustedHeadroom(t *testing.T) {
	st := NewStore()
	st.Publish(testHosts(1, 1))
	// Deliberately out of key order: CommitRound must canonicalize.
	committed, conflicted := st.CommitRound([]Bind{
		{Key: 7, Node: 1, VM: lsVM("late", 1e6)},
		{Key: 2, Node: 1, VM: lsVM("early", 1e6)},
	})
	if len(committed) != 1 || committed[0].Key != 2 {
		t.Fatalf("committed %v, want exactly key 2 (lowest key wins)", committed)
	}
	if len(conflicted) != 1 || conflicted[0].Key != 7 {
		t.Fatalf("conflicted %v, want exactly key 7", conflicted)
	}
	if st.Commits() != 1 || st.Conflicts() != 1 {
		t.Errorf("store counters commits=%d conflicts=%d, want 1/1", st.Commits(), st.Conflicts())
	}
}

// TestStoreCommitConflictTargets rejects binds onto full and unknown nodes
// as conflicts.
func TestStoreCommitConflictTargets(t *testing.T) {
	st := NewStore()
	hosts := testHosts(2, 4)
	hosts[1].FreePCPUs = 0
	st.Publish(hosts)
	committed, conflicted := st.CommitRound([]Bind{
		{Key: 1, Node: 2, VM: lsVM("q", 1e6)},  // full
		{Key: 2, Node: 99, VM: lsVM("x", 1e6)}, // unknown node
		{Key: 3, Node: 1, VM: lsVM("ok", 1e6)},
	})
	if len(committed) != 1 || committed[0].Key != 3 {
		t.Fatalf("committed %v, want exactly key 3", committed)
	}
	if len(conflicted) != 2 {
		t.Fatalf("conflicted %v, want keys 1 and 2", conflicted)
	}
}

// TestStoreAllConflictRoundKeepsSnapshot: a round where nothing lands must
// not install a new snapshot version.
func TestStoreAllConflictRoundKeepsSnapshot(t *testing.T) {
	st := NewStore()
	hosts := testHosts(1, 4)
	hosts[0].FreePCPUs = 0
	st.Publish(hosts)
	prev := st.Snapshot()
	committed, conflicted := st.CommitRound([]Bind{{Key: 1, Node: 1, VM: lsVM("q", 1e6)}})
	if len(committed) != 0 || len(conflicted) != 1 {
		t.Fatalf("committed=%d conflicted=%d, want 0/1", len(committed), len(conflicted))
	}
	if st.Snapshot() != prev {
		t.Error("all-conflict round installed a new snapshot")
	}
}

// TestSnapshotWithoutVM checks the what-if view is bit-exact: eliding a VM
// yields the identical IOCommitted a from-scratch construction without that
// VM produces (re-summed, not subtracted), vacates one PCPU, and leaves
// every other host shared.
func TestSnapshotWithoutVM(t *testing.T) {
	st := NewStore()
	st.Publish(testHosts(2, 4))
	// Residency on node1: three VMs with rates whose float sum is
	// subtraction-hostile (0.1+0.2 != 0.3 in binary).
	st.CommitRound([]Bind{
		{Key: 1, Node: 1, VM: lsVM("a", 0.1e9)},
		{Key: 2, Node: 1, VM: lsVM("b", 0.2e9)},
		{Key: 3, Node: 1, VM: lsVM("c", 0.3e9)},
	})
	snap := st.Snapshot()
	view := snap.WithoutVM(1, "b")

	// Reference: re-sum a and c in residence order — exactly what a rebuild
	// that skips b computes.
	want := 0.1e9/1e9 + 0.3e9/1e9
	h := view[0]
	if h.Node != 1 {
		t.Fatalf("view[0] is node%d, want node1", h.Node)
	}
	if h.IOCommitted != want {
		t.Errorf("IOCommitted = %v, want bit-exact %v", h.IOCommitted, want)
	}
	if h.FreePCPUs != 2 { // 4 - 3 placed + 1 vacated
		t.Errorf("FreePCPUs = %d, want 2", h.FreePCPUs)
	}
	if len(h.VMs) != 2 || h.VMs[0].Spec.Name != "a" || h.VMs[1].Spec.Name != "c" {
		t.Errorf("remaining VMs %v, want [a c] in residence order", h.VMs)
	}
	// Untouched host shared, snapshot itself untouched.
	if view[1] != snap.Hosts[1] {
		t.Error("untouched host was cloned")
	}
	if got := snap.Host(1).FreePCPUs; got != 1 {
		t.Errorf("snapshot mutated by WithoutVM: FreePCPUs = %d, want 1", got)
	}
	// Eliding an unknown VM changes nothing on the host.
	view2 := snap.WithoutVM(1, "nope")
	if h2 := view2[0]; h2.FreePCPUs != 1 || len(h2.VMs) != 3 {
		t.Errorf("eliding unknown VM changed the host: free=%d vms=%d", h2.FreePCPUs, len(h2.VMs))
	}
}

// TestSnapshotHostLookup exercises the binary search.
func TestSnapshotHostLookup(t *testing.T) {
	st := NewStore()
	st.Publish(testHosts(5, 1))
	snap := st.Snapshot()
	for n := 1; n <= 5; n++ {
		if h := snap.Host(n); h == nil || h.Node != n {
			t.Fatalf("Host(%d) = %v", n, h)
		}
	}
	if snap.Host(0) != nil || snap.Host(6) != nil {
		t.Error("lookup of absent nodes returned a host")
	}
}
