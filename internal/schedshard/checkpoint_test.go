package schedshard

import (
	"encoding/json"
	"reflect"
	"testing"
)

// checkpointScenario is schedScenario with a probe called between rounds
// (nil = none). Same inputs must produce the same final State regardless of
// the probe — that is the purity contract.
func checkpointScenario(probe func(*Scheduler)) *Scheduler {
	store := NewStore()
	store.Publish(testHosts(32, 4))
	s := NewScheduler(store, Config{Shards: 4, Seed: 11})
	for i := 0; i < 32*4; i++ {
		s.Enqueue(Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}, lsVM("ls", 2e6))
		if (i+1)%24 == 0 {
			s.Round()
			if probe != nil {
				probe(s)
			}
		}
	}
	s.Run()
	return s
}

// TestCheckpointEquality: two same-seed runs export byte-identical state
// (the same determinism contract the nine engine Checkpoint suites pin).
func TestCheckpointEquality(t *testing.T) {
	a := checkpointScenario(nil).Checkpoint()
	b := checkpointScenario(nil).Checkpoint()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed checkpoints differ:\n a %+v\n b %+v", a, b)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("JSON encodings differ:\n a %s\n b %s", ja, jb)
	}
}

// TestCheckpointPurity: exporting state mid-run must not perturb the run —
// a run probed with Checkpoint after every round ends in exactly the state
// of an unprobed run, and double export returns equal values.
func TestCheckpointPurity(t *testing.T) {
	plain := checkpointScenario(nil)
	probed := checkpointScenario(func(s *Scheduler) {
		first := s.Checkpoint()
		second := s.Checkpoint()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("double Checkpoint differs:\n 1 %+v\n 2 %+v", first, second)
		}
	})
	if !reflect.DeepEqual(plain.Checkpoint(), probed.Checkpoint()) {
		t.Fatalf("mid-run Checkpoint perturbed the run:\n plain  %+v\n probed %+v",
			plain.Checkpoint(), probed.Checkpoint())
	}
	if plain.BindFNV() != probed.BindFNV() {
		t.Errorf("bind checksums diverged: %016x vs %016x", plain.BindFNV(), probed.BindFNV())
	}
}

// TestCheckpointMidRunPinsPendingQueue: a mid-drain export carries the
// pending keys in ascending order — the piece of state a resumed run needs
// to finish identically.
func TestCheckpointMidRunPinsPendingQueue(t *testing.T) {
	store := NewStore()
	store.Publish(testHosts(2, 1))
	seed := seedSplittingKeys(t)
	s := NewScheduler(store, Config{Shards: 2, Seed: seed})
	s.Enqueue(Spec{Name: "a", LatencySensitive: true}, lsVM("a", 1e6))
	s.Enqueue(Spec{Name: "b", LatencySensitive: true}, lsVM("b", 1e6))
	s.Round() // key 2 conflicts and requeues

	st := s.Checkpoint()
	if len(st.Pending) != 1 || st.Pending[0] != 2 {
		t.Fatalf("pending keys %v, want [2]", st.Pending)
	}
	if st.Bound != 1 || st.Rounds != 1 || st.Retries != 1 {
		t.Errorf("bound=%d rounds=%d retries=%d, want 1/1/1", st.Bound, st.Rounds, st.Retries)
	}
	if st.StoreVersion != 2 { // publish + one effective commit round
		t.Errorf("store version %d, want 2", st.StoreVersion)
	}
	if st.StoreCommits != 1 || st.StoreConflicts != 1 {
		t.Errorf("store commits=%d conflicts=%d, want 1/1", st.StoreCommits, st.StoreConflicts)
	}

	// Shard counters in the export sum to the totals.
	var committed, conflicted uint64
	for _, sc := range st.Shards {
		committed += sc.Committed
		conflicted += sc.Conflicted
	}
	if committed != 1 || conflicted != 1 {
		t.Errorf("shard counter sums committed=%d conflicted=%d, want 1/1", committed, conflicted)
	}
}

// TestCheckpointWorkerInvariance: the exported state is identical at any
// worker width — the wire-format half of the determinism gate.
func TestCheckpointWorkerInvariance(t *testing.T) {
	run := func(workers int) State {
		store := NewStore()
		store.Publish(testHosts(48, 4))
		s := NewScheduler(store, Config{Shards: 8, Workers: workers, Seed: 7})
		for i := 0; i < 48*4; i++ {
			s.Enqueue(Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}, lsVM("ls", 2e6))
			if (i+1)%48 == 0 {
				s.Round()
			}
		}
		s.Run()
		return s.Checkpoint()
	}
	ref := run(1)
	for _, workers := range []int{4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d state differs:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}
