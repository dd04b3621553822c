package schedshard

import (
	"reflect"
	"testing"
)

// seedSplittingKeys returns a seed under which keys 1 and 2 land on
// different shards of a 2-shard scheduler — the partition is a seeded hash,
// so the test probes a few seeds rather than hard-coding hash output.
func seedSplittingKeys(t *testing.T) int64 {
	t.Helper()
	for seed := int64(0); seed < 64; seed++ {
		s := NewScheduler(NewStore(), Config{Shards: 2, Seed: seed})
		if s.shardOf(1) != s.shardOf(2) {
			return seed
		}
	}
	t.Fatal("no seed in [0,64) splits keys 1 and 2 across 2 shards")
	return 0
}

// TestConflictLoserRebindsNextRound is the retry-after-conflict contract:
// two shards, blind to each other, herd onto the same single-slot host; the
// lower key wins at commit, the loser requeues and rebinds onto the second
// host in the next round.
func TestConflictLoserRebindsNextRound(t *testing.T) {
	seed := seedSplittingKeys(t)
	store := NewStore()
	store.Publish(testHosts(2, 1))
	s := NewScheduler(store, Config{Shards: 2, Seed: seed})
	s.Enqueue(Spec{Name: "a", LatencySensitive: true}, lsVM("a", 1e6))
	s.Enqueue(Spec{Name: "b", LatencySensitive: true}, lsVM("b", 1e6))

	rs := s.Round()
	// Both shards saw two identical empty hosts and broke the score tie to
	// node1; the merge commits key 1 there and rejects key 2.
	if rs.Proposed != 2 || rs.Committed != 1 || rs.Conflicted != 1 {
		t.Fatalf("round 1 = %+v, want proposed 2, committed 1, conflicted 1", rs)
	}
	if rs.Pending != 1 {
		t.Fatalf("round 1 pending = %d, want 1 (the loser requeued)", rs.Pending)
	}
	rs2 := s.Round()
	if rs2.Committed != 1 || rs2.Conflicted != 0 {
		t.Fatalf("round 2 = %+v, want the loser to commit cleanly", rs2)
	}

	bound := s.Bound()
	if len(bound) != 2 {
		t.Fatalf("bound %d VMs, want 2", len(bound))
	}
	if bound[0].Key != 1 || bound[0].Node != 1 {
		t.Errorf("first bind %+v, want key 1 on node1", bound[0])
	}
	if bound[1].Key != 2 || bound[1].Node != 2 {
		t.Errorf("retried bind %+v, want key 2 on node2 (node1 exhausted)", bound[1])
	}
	if s.Conflicts() != 1 || s.Retries() != 1 || s.Rounds() != 2 {
		t.Errorf("conflicts=%d retries=%d rounds=%d, want 1/1/2", s.Conflicts(), s.Retries(), s.Rounds())
	}
	if len(s.Failed()) != 0 {
		t.Errorf("failed %v, want none", s.Failed())
	}
}

// schedScenario drives a packed mixed fleet through waved rounds and
// returns the scheduler for inspection.
func schedScenario(shards, workers int, avoid bool) *Scheduler {
	store := NewStore()
	store.Publish(testHosts(48, 4))
	s := NewScheduler(store, Config{
		Shards: shards, Workers: workers, Seed: 7, AvoidConflicts: avoid,
	})
	total := 48 * 4 // exactly fills the fleet: the tail rounds must fight
	for i := 0; i < total; i++ {
		if i%4 == 3 {
			spec := Spec{Name: "bulk", BufferSize: 2 << 20}
			s.Enqueue(spec, VMInfo{Spec: spec, BytesPerSec: 60e6, BufferSize: 2 << 20})
		} else {
			s.Enqueue(Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}, lsVM("ls", 2e6))
		}
		if (i+1)%48 == 0 {
			s.Round()
		}
	}
	s.Run()
	return s
}

// TestWorkerCountInvariance: Workers is a wall-clock knob only — at any
// width the bind sequence, every counter and the per-shard accounting are
// identical.
func TestWorkerCountInvariance(t *testing.T) {
	ref := schedScenario(8, 1, false)
	for _, workers := range []int{2, 4, 8} {
		got := schedScenario(8, workers, false)
		if got.BindFNV() != ref.BindFNV() {
			t.Errorf("workers=%d: BindFNV %016x, want %016x", workers, got.BindFNV(), ref.BindFNV())
		}
		if !reflect.DeepEqual(got.Bound(), ref.Bound()) {
			t.Errorf("workers=%d: bind sequence differs", workers)
		}
		if !reflect.DeepEqual(got.Shards(), ref.Shards()) {
			t.Errorf("workers=%d: per-shard counters differ:\n got %+v\nwant %+v",
				workers, got.Shards(), ref.Shards())
		}
		if got.Rounds() != ref.Rounds() || got.Retries() != ref.Retries() {
			t.Errorf("workers=%d: rounds/retries %d/%d, want %d/%d",
				workers, got.Rounds(), got.Retries(), ref.Rounds(), ref.Retries())
		}
	}
}

// TestSingleShardNeverConflicts: one shard sees its own claims, so the
// serial scheduler cannot conflict with itself.
func TestSingleShardNeverConflicts(t *testing.T) {
	s := schedScenario(1, 1, false)
	if s.Conflicts() != 0 {
		t.Errorf("single-shard run conflicted %d times, want 0", s.Conflicts())
	}
	if len(s.Bound()) != 48*4 || len(s.Failed()) != 0 {
		t.Errorf("bound=%d failed=%d, want %d/0", len(s.Bound()), len(s.Failed()), 48*4)
	}
}

// TestAvoidConflictsReducesHerding: the rotated tie-break must never
// conflict more than the naive lowest-node tie-break on the same scenario,
// and on this packed fleet it is strictly better.
func TestAvoidConflictsReducesHerding(t *testing.T) {
	naive := schedScenario(8, 1, false)
	avoid := schedScenario(8, 1, true)
	if naive.Conflicts() == 0 {
		t.Fatal("scenario produced no naive conflicts; it tests nothing")
	}
	if avoid.Conflicts() >= naive.Conflicts() {
		t.Errorf("avoid conflicts = %d, naive = %d; rotation should win",
			avoid.Conflicts(), naive.Conflicts())
	}
	for _, s := range []*Scheduler{naive, avoid} {
		if len(s.Bound()) != 48*4 || len(s.Failed()) != 0 {
			t.Errorf("bound=%d failed=%d, want %d/0", len(s.Bound()), len(s.Failed()), 48*4)
		}
	}
}

// TestExhaustedFleetFailsRemainder: when a round can commit nothing the
// leftover requests are declared failed — Run terminates instead of
// livelocking.
func TestExhaustedFleetFailsRemainder(t *testing.T) {
	store := NewStore()
	store.Publish(testHosts(1, 1))
	s := NewScheduler(store, Config{Shards: 2, Seed: 1})
	for i := 0; i < 3; i++ {
		s.Enqueue(Spec{Name: "x", LatencySensitive: true}, lsVM("x", 1e6))
	}
	s.Run()
	if len(s.Bound()) != 1 {
		t.Fatalf("bound %d, want 1 (the fleet has one slot)", len(s.Bound()))
	}
	if len(s.Failed()) != 2 {
		t.Fatalf("failed %d, want 2", len(s.Failed()))
	}
	if s.PendingLen() != 0 {
		t.Errorf("pending %d after Run, want 0", s.PendingLen())
	}
	// Failed requests keep ascending key order.
	if s.Failed()[0].Key >= s.Failed()[1].Key {
		t.Errorf("failed keys out of order: %d, %d", s.Failed()[0].Key, s.Failed()[1].Key)
	}
}

// TestShardPartitionStable: the same key maps to the same shard on every
// call — and changing the seed changes the partition (it is really seeded).
func TestShardPartitionStable(t *testing.T) {
	a := NewScheduler(NewStore(), Config{Shards: 8, Seed: 1})
	b := NewScheduler(NewStore(), Config{Shards: 8, Seed: 2})
	same := true
	for key := uint64(1); key <= 256; key++ {
		if a.shardOf(key) != a.shardOf(key) {
			t.Fatalf("shardOf(%d) unstable", key)
		}
		if a.shardOf(key) != b.shardOf(key) {
			same = false
		}
	}
	if same {
		t.Error("partition identical under different seeds")
	}
}
