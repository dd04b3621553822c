package schedshard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// laneSpec is randomSpec with a random name.
func laneSpec(rng *rand.Rand) Spec {
	s := randomSpec(rng)
	s.Name = fmt.Sprintf("vm%d", rng.Intn(1000))
	return s
}

func laneVM(rng *rand.Rand, s Spec) VMInfo {
	return VMInfo{Spec: s, BytesPerSec: 1e8 * rng.Float64(), BufferSize: s.BufferSize}
}

// lanePipelines are the two built-ins and the zero Pipeline, which
// scores every feasible host 0, so every pick is a tie.
func lanePipelines() map[string]Pipeline {
	return map[string]Pipeline{
		"interference": NewInterferencePipeline(),
		"spread":       NewSpreadPipeline(),
		"ties":         {},
	}
}

// laneGroup is one proposal group of a lane program: its members, and
// whether to unwind the group's claims even when every member placed.
type laneGroup struct {
	members []Pending
	unwind  bool
}

// checkLanePick runs one random program of picks, claims and unwinds
// through a lane on every lane pipeline. Each pick must choose the index
// the reference Pipeline.pick (no memo, no cache) chooses on the same view,
// and at the end every cached outcome must equal a fresh score.
func checkLanePick(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	snap := &Snapshot{Hosts: randomFleet(rng)}
	off := rng.Intn(len(snap.Hosts))
	groups := make([]laneGroup, 1+rng.Intn(24))
	for g := range groups {
		for m := 1 + rng.Intn(3); m > 0; m-- {
			s := laneSpec(rng)
			groups[g].members = append(groups[g].members, Pending{Spec: s, VM: laneVM(rng, s)})
		}
		groups[g].unwind = rng.Intn(4) == 0
	}
	for name, pipe := range lanePipelines() {
		ln := &lane{pipe: pipe}
		ln.refresh(snap, off)
		for g, grp := range groups {
			var claims []claim
			for m := range grp.members {
				p := &grp.members[m]
				got := ln.pick(p.Spec)
				if want := pipe.pick(ln.ptrs, p.Spec, off); got != want {
					t.Fatalf("seed %d %s group %d member %d (%+v): cached pick %d, reference %d",
						seed, name, g, m, p.Spec, got, want)
				}
				if got < 0 {
					break
				}
				claims = append(claims, ln.claimFor(got, p))
			}
			if grp.unwind || len(claims) < len(grp.members) {
				ln.unwind(claims)
			}
		}
		for c, ok := range ln.cache.filled {
			if !ok {
				continue
			}
			for i, h := range ln.ptrs {
				e := cachedScore{ok: Feasible(h)}
				if e.ok {
					e.score = pipe.score(h, penaltyClass(c).of(penalties(h)))
				}
				if got := ln.cache.rows[c][i]; got != e {
					t.Fatalf("seed %d %s class %d host %d: cached %+v, fresh %+v", seed, name, c, h.Node, got, e)
				}
			}
		}
	}
}

// checkRoundsMatchReference drives whole scheduler runs — random fleet,
// shard count, tie-break mode, singles and gangs in waves — once with each
// lane pipeline on cached lanes and once on reference lanes. The cached
// run must reproduce the reference run exactly: binds, failures, per-shard
// counters, gang accounting and the final snapshot.
func checkRoundsMatchReference(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fleet := randomFleet(rng)
	cfg := Config{Shards: 1 + rng.Intn(4), Workers: 1, Seed: seed, AvoidConflicts: rng.Intn(2) == 0}
	type arrival struct {
		spec Spec
		vm   VMInfo
		gang int
	}
	arrivals := make([]arrival, 1+rng.Intn(40))
	for i := range arrivals {
		s := laneSpec(rng)
		arrivals[i] = arrival{spec: s, vm: laneVM(rng, s)}
		if rng.Intn(5) == 0 {
			arrivals[i].gang = 2 + rng.Intn(3)
		}
	}
	wave := 1 + rng.Intn(8)
	run := func(pipe Pipeline, reference bool) *Scheduler {
		hosts := make([]*HostInfo, len(fleet))
		for i, h := range fleet {
			c := *h
			hosts[i] = &c
		}
		store := NewStore()
		store.Publish(hosts)
		s := NewScheduler(store, cfg)
		for _, ln := range s.lanes {
			ln.pipe, ln.reference = pipe, reference
		}
		for i, a := range arrivals {
			if a.gang > 0 {
				s.EnqueueGang(a.spec, a.vm, a.gang)
			} else {
				s.Enqueue(a.spec, a.vm)
			}
			if (i+1)%wave == 0 {
				s.Round()
			}
		}
		s.Run()
		return s
	}
	for name, pipe := range lanePipelines() {
		got, want := run(pipe, false), run(pipe, true)
		if !reflect.DeepEqual(got.Bound(), want.Bound()) {
			t.Fatalf("seed %d %s: binds differ:\n got %v\nwant %v", seed, name, got.Bound(), want.Bound())
		}
		if !reflect.DeepEqual(got.Failed(), want.Failed()) || !reflect.DeepEqual(got.Shards(), want.Shards()) ||
			got.Gangs() != want.Gangs() || got.Rounds() != want.Rounds() || got.Retries() != want.Retries() {
			t.Fatalf("seed %d %s: counters differ", seed, name)
		}
		gj, _ := json.Marshal(got.Store().Snapshot().Hosts)
		wj, _ := json.Marshal(want.Store().Snapshot().Hosts)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("seed %d %s: final snapshots differ", seed, name)
		}
	}
}

// TestLanePickMatchesReference is the score cache's property test over
// random fleets; FuzzLanePick explores further seeds.
func TestLanePickMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkLanePick(t, seed)
		checkRoundsMatchReference(t, seed)
	}
}

func FuzzLanePick(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkLanePick(t, seed)
		checkRoundsMatchReference(t, seed)
	})
}

// heldSnapshot is what a reader saw: the hosts' JSON and a copy of every
// host's resident VMs.
type heldSnapshot struct {
	snap *Snapshot
	js   []byte
	vms  [][]VMInfo
}

func holdSnapshot(t *testing.T, snap *Snapshot) heldSnapshot {
	t.Helper()
	js, err := json.Marshal(snap.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	h := heldSnapshot{snap: snap, js: js}
	for _, host := range snap.Hosts {
		h.vms = append(h.vms, slices.Clone(host.VMs))
	}
	return h
}

func (h heldSnapshot) check(t *testing.T, label string) {
	t.Helper()
	js, err := json.Marshal(h.snap.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, h.js) {
		t.Errorf("%s: held snapshot v%d changed:\nbefore %s\nafter  %s", label, h.snap.Version, h.js, js)
	}
	for i, host := range h.snap.Hosts {
		if !slices.Equal(host.VMs, h.vms[i]) {
			t.Errorf("%s: held snapshot v%d node%d VMs changed", label, h.snap.Version, host.Node)
		}
	}
}

// TestHeldSnapshotsNeverChange: commits append resident VMs in place into
// arrays earlier commits allocated, so every snapshot a reader holds must
// stay byte-identical through later commits, gang rollbacks, zero-commit
// rounds, a fresh Publish and scheduler rounds. A reader goroutine marshals
// the held snapshots throughout; under -race any store write into memory a
// held snapshot exposes is reported.
func TestHeldSnapshotsNeverChange(t *testing.T) {
	hosts := testHosts(3, 8)
	// A published array with spare capacity: the store must not append
	// into a caller's array.
	hosts[0].VMs = make([]VMInfo, 1, 4)
	hosts[0].VMs[0] = lsVM("pub", 1e6)
	hosts[0].FreePCPUs--
	st := NewStore()
	st.Publish(hosts)
	bulk := VMInfo{Spec: Spec{Name: "bulk", BufferSize: 2 << 20}, BytesPerSec: 40e6, BufferSize: 2 << 20}

	var held []heldSnapshot
	hold := func() { held = append(held, holdSnapshot(t, st.Snapshot())) }
	checkAll := func(label string) {
		t.Helper()
		for _, h := range held {
			h.check(t, label)
		}
	}
	hold()

	// Successive single-bind rounds onto the same hosts: once a clone's
	// array has room, the next commit appends into it.
	key := uint64(0)
	inPlace := 0
	for r := 0; r < 6; r++ {
		key += 2
		prev := st.Snapshot()
		committed, _ := st.CommitRound([]Bind{
			{Key: key - 1, Node: 1, VM: lsVM(fmt.Sprintf("a%d", r), 1e6)},
			{Key: key, Node: 2, VM: bulk},
		})
		if len(committed) != 2 {
			t.Fatalf("round %d committed %d, want 2", r, len(committed))
		}
		next := st.Snapshot()
		for _, n := range []int{1, 2} {
			p, q := prev.Host(n), next.Host(n)
			if len(p.VMs) > 0 && &p.VMs[0] == &q.VMs[0] {
				inPlace++
			}
			if len(q.VMs) != cap(q.VMs) {
				t.Fatalf("round %d node%d: published VMs len %d cap %d, want len == cap", r, n, len(q.VMs), cap(q.VMs))
			}
		}
		hold()
	}
	if inPlace == 0 {
		t.Fatal("no commit appended in place; the test exercises nothing")
	}
	checkAll("after commits")

	// Readers run concurrently with every later store write.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func(held []heldSnapshot) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range held {
				if _, err := json.Marshal(h.snap.Hosts); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}(slices.Clone(held))

	// A gang that appends onto nodes 1 and 2, then fails on an unknown
	// node, beside a singleton that commits: the gang rolls back inside a
	// committing round.
	committed, conflicted := st.CommitRound([]Bind{
		{Key: key + 1, Node: 3, VM: lsVM("solo", 1e6)},
		{Key: key + 2, Node: 1, VM: bulk, Gang: key + 2, GangSize: 3},
		{Key: key + 3, Node: 2, VM: bulk, Gang: key + 2, GangSize: 3},
		{Key: key + 4, Node: 99, VM: bulk, Gang: key + 2, GangSize: 3},
	})
	if len(committed) != 1 || len(conflicted) != 3 {
		t.Fatalf("gang round committed %d conflicted %d, want 1/3", len(committed), len(conflicted))
	}
	key += 4
	hold()

	// A zero-commit round: the same failing gang alone appends past the
	// published lengths, rolls back and installs nothing.
	before := st.Snapshot()
	committed, _ = st.CommitRound([]Bind{
		{Key: key + 1, Node: 1, VM: bulk, Gang: key + 1, GangSize: 2},
		{Key: key + 2, Node: 99, VM: bulk, Gang: key + 1, GangSize: 2},
	})
	if len(committed) != 0 || st.Snapshot() != before {
		t.Fatal("zero-commit round installed a snapshot")
	}
	key += 2
	// The next commit onto node 1 overwrites what the dropped round wrote.
	st.CommitRound([]Bind{{Key: key + 1, Node: 1, VM: lsVM("after-drop", 1e6)}})
	key++
	hold()

	// A fresh Publish with a shorter resident list on node 1, then commits
	// onto it: the store must not append into arrays from before.
	fresh := testHosts(3, 8)
	fresh[0].VMs = []VMInfo{lsVM("fresh", 1e6)}
	st.Publish(fresh)
	for r := 0; r < 3; r++ {
		key++
		st.CommitRound([]Bind{{Key: key, Node: 1, VM: lsVM(fmt.Sprintf("f%d", r), 1e6)}})
		hold()
	}

	// Scheduler rounds on the same store, with a gang that cannot fit.
	s := NewScheduler(st, Config{Shards: 2, Seed: 3})
	for i := 0; i < 12; i++ {
		s.Enqueue(Spec{Name: "ls", LatencySensitive: true, BufferSize: 64 << 10}, lsVM("ls", 2e6))
	}
	s.EnqueueGang(Spec{Name: "big", LatencySensitive: true}, gangVM(1e6), 64)
	s.Run()
	hold()

	close(stop)
	wg.Wait()
	checkAll("after rollbacks, drops, publish and rounds")
	if got := held[0].snap.Host(1).VMs; cap(got) != 4 || got[:cap(got)][1] != (VMInfo{}) {
		t.Error("the store appended into a published array")
	}
}
