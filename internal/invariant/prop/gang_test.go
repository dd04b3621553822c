package prop

import (
	"fmt"
	"strings"
	"testing"

	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/workload"
)

// gangScan is the observable side of the all-or-nothing contract: in any
// published Snapshot, a scale-set's resident members number either zero or
// the full gang size — a partially bound gang must never be visible, not
// even transiently between rounds. Members are recognized by the "<set>/<i>"
// naming EnqueueGang stamps.
func gangScan(t *testing.T, snap *schedshard.Snapshot, sizes map[string]int) {
	t.Helper()
	counts := make(map[string]int, len(sizes))
	for _, h := range snap.Hosts {
		for _, vm := range h.VMs {
			if i := strings.IndexByte(vm.Spec.Name, '/'); i >= 0 {
				counts[vm.Spec.Name[:i]]++
			}
		}
	}
	for set, n := range counts {
		want, ok := sizes[set]
		if !ok {
			t.Fatalf("snapshot v%d: unknown gang %q resident", snap.Version, set)
		}
		if n != want {
			t.Fatalf("snapshot v%d: gang %q visible at partial strength %d/%d",
				snap.Version, set, n, want)
		}
	}
}

// gangRun is one generated gang-placement scenario's outcome.
type gangRun struct {
	sched *schedshard.Scheduler
	sizes map[string]int
	gangs int
}

// runGangs drives a generated fleet and scale-set stream through the
// multi-shard scheduler under adversarial conflict pressure: many logical
// shards over few hosts, the naive (herding) tie-break, arrivals interleaved
// with rounds so retries fight fresh gangs for the same headroom. With scan
// set, every round's published snapshot is checked for partial gangs.
func runGangs(t *testing.T, seed int64, shards, workers int, scan bool) gangRun {
	t.Helper()
	rng := sim.NewRand(seed)
	hosts := GangFleet(rng)
	slots := 0
	for _, h := range hosts {
		slots += h.FreePCPUs
	}
	store := schedshard.NewStore()
	store.Publish(hosts)
	sched := schedshard.NewScheduler(store, schedshard.Config{
		Shards: shards, Workers: workers, Seed: seed,
	})
	// Fill ~90% of the fleet's guest slots: scale-sets with two singletons
	// between them, so the tail rounds genuinely fight for PCPUs.
	sets := ScaleSets(rng, slots)
	szs := make(map[string]int)
	budget := slots * 9 / 10
	used, si, singles := 0, 0, 0
	for used < budget && si < len(sets) {
		s := sets[si]
		si++
		workload.EnqueueScaleSet(sched, s)
		szs[s.Name] = s.Size
		used += s.Size
		for k := 0; k < 2 && used < budget; k++ {
			spec := schedshard.Spec{
				Name: fmt.Sprintf("solo%d", singles), LatencySensitive: true, BufferSize: 64 << 10,
			}
			sched.Enqueue(spec, schedshard.VMInfo{
				Spec: spec, BytesPerSec: 2e6, BufferSize: 64 << 10,
			})
			singles++
			used++
		}
		if si%3 == 0 {
			sched.Round()
			if scan {
				gangScan(t, store.Snapshot(), szs)
			}
		}
	}
	for sched.PendingLen() > 0 {
		sched.Round()
		if scan {
			gangScan(t, store.Snapshot(), szs)
		}
	}
	return gangRun{sched: sched, sizes: szs, gangs: si}
}

// TestGangAllOrNothingUnderPressure is the gang-placement property: across
// generated fleets and scale-set streams, under heavy optimistic conflict
// pressure, (a) no published snapshot ever shows a gang at partial strength,
// (b) the scheduler's own partial counter stays zero, and (c) every gang is
// accounted for exactly once — placed whole or failed whole. The final
// non-vacuity check requires the scenarios to have produced real conflicts.
func TestGangAllOrNothingUnderPressure(t *testing.T) {
	var conflicts uint64
	for _, seed := range []int64{3, 17, 41, 88} {
		r := runGangs(t, seed, 8, 4, true)
		gs := r.sched.Gangs()
		if gs.Partial != 0 {
			t.Fatalf("seed %d: %d gangs committed at partial strength", seed, gs.Partial)
		}
		if gs.Placed+gs.Failed != uint64(r.gangs) {
			t.Fatalf("seed %d: gang accounting off: placed %d + failed %d != %d gangs",
				seed, gs.Placed, gs.Failed, r.gangs)
		}
		// Placed gangs are fully resident in the final snapshot; failed
		// gangs left no members behind.
		gangScan(t, r.sched.Store().Snapshot(), r.sizes)
		conflicts += r.sched.Conflicts()
	}
	if conflicts == 0 {
		t.Fatal("no optimistic conflicts across any seed — pressure too low, property vacuous")
	}
}

// TestGangWorkerWidthInvariance pins that gang placement keeps the
// scheduler's worker-count contract: the bind fingerprint and the gang
// accounting are identical whether a round's shards run serially or on a
// wide pool (run under -race, this also hammers the propose pool's
// synchronization with gang unwinding in play).
func TestGangWorkerWidthInvariance(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		ref := runGangs(t, seed, 8, 1, false)
		for _, workers := range []int{4, 8} {
			got := runGangs(t, seed, 8, workers, false)
			if got.sched.BindFNV() != ref.sched.BindFNV() {
				t.Errorf("seed %d workers %d: BindFNV %016x, want %016x",
					seed, workers, got.sched.BindFNV(), ref.sched.BindFNV())
			}
			if got.sched.Gangs() != ref.sched.Gangs() {
				t.Errorf("seed %d workers %d: gang stats %+v, want %+v",
					seed, workers, got.sched.Gangs(), ref.sched.Gangs())
			}
		}
	}
}
