package experiments

import (
	"fmt"
	"io"

	"resex/internal/schedshard"
	"resex/internal/sim"
	"resex/internal/snapshot"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-shardsched: optimistic multi-shard placement at fleet scale — the
// conflict-rate-vs-shard-count curve.
// ---------------------------------------------------------------------------

// AblShardSchedRow is one (mode, shard count) outcome over the synthetic
// fleet.
type AblShardSchedRow struct {
	// Mode is the tie-break policy: "naive" (every shard breaks score ties
	// toward the lowest node — maximal herding) or "avoid" (per-shard
	// rotated tie-break, the smart conflict avoidance).
	Mode string `col:"mode,%-6s,mode"`
	// Shards is the logical shard count the pending queue is partitioned
	// into. This is the semantic axis of the experiment — unlike the
	// resexsim -parallel worker width, which never changes output.
	Shards int `col:"shards,%7d,shards"`
	// Rounds is how many propose→merge→commit cycles draining the arrival
	// sequence took.
	Rounds uint64 `col:"rounds,%7d,rounds"`
	// Placed and Failed partition the arrivals.
	Placed int `col:"placed,%7d,placed"`
	Failed int `col:"failed,%7d,failed"`
	// Conflicts counts binds rejected at commit (a shard bound into
	// headroom an earlier-keyed bind had exhausted); ConflictPct is
	// conflicts over all proposals (commits + conflicts).
	Conflicts   uint64  `col:"conflicts,%10d,conflicts"`
	ConflictPct float64 `col:"conflict%,%10.2f,conflict_pct"`
	// Retries counts requeued requests (conflict losers + starved).
	Retries uint64 `col:"retries,%8d,retries"`
	// Coloc counts latency-sensitive VMs sharing a host with at least one
	// large-buffer bulk VM in the final state — the placement-quality
	// check that more shards must not quietly trade quality for speed.
	Coloc int `col:"coloc,%7d,coloc"`
	// BindFNV fingerprints the full bind sequence (key, node, in commit
	// order), hex. The determinism gates compare it across worker counts
	// and restore paths.
	BindFNV string `col:"bind-fnv,%17s,bind_fnv"`
}

// AblShardSchedResult is the conflict-rate curve across shard counts, for
// both tie-break modes.
type AblShardSchedResult struct {
	Hosts int
	VMs   int
	Rows  []AblShardSchedRow
}

// Title implements Result.
func (r *AblShardSchedResult) Title() string {
	return "Shard: optimistic multi-shard placement, conflict rate vs shard count"
}

// WriteText implements Result.
func (r *AblShardSchedResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (%d hosts, %d VMs)", r.Title(), r.Hosts, r.VMs), r.Rows)
}

// WriteCSV implements Result.
func (r *AblShardSchedResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// fleetHosts sizes a synthetic fleet from the run duration: the default 2 s
// window gets full hosts; short CI and resume-sweep windows scale down
// proportionally (floor 64 hosts) so the experiment stays seconds, not
// minutes.
func fleetHosts(o Options, full int) int {
	frac := float64(o.Duration) / float64(2*sim.Second)
	if frac > 1 {
		frac = 1
	}
	hosts := int(float64(full)*frac + 0.5)
	if hosts < 64 {
		hosts = 64
	}
	return hosts
}

// shardSchedScale sizes abl-shardsched's fleet: 2k hosts / 50k VMs at full
// scale. VMs are 25 per host against 31 guest slots — an ~80% packed fleet,
// where optimistic conflicts actually happen (a near-empty fleet absorbs
// every duplicate claim).
func shardSchedScale(o Options) (hosts, vms int) {
	hosts = fleetHosts(o, 2000)
	return hosts, 25 * hosts
}

// shardSchedPCPUs is each synthetic host's guest capacity.
const shardSchedPCPUs = 31

// shardSchedHosts builds the synthetic fleet view the store publishes:
// uniform hosts, 1 GB/s uplinks, full Reso headroom.
func shardSchedHosts(n int) []*schedshard.HostInfo {
	hosts := make([]*schedshard.HostInfo, n)
	for i := range hosts {
		hosts[i] = &schedshard.HostInfo{
			Node:            i + 1,
			FreePCPUs:       shardSchedPCPUs,
			TotalPCPUs:      shardSchedPCPUs,
			LinkBytesPerSec: 1e9,
			ResoHeadroom:    1,
		}
	}
	return hosts
}

// shardSchedArrival is one synthetic VM: the spec the pipeline scores and
// the VMInfo its bind installs (declared profile estimates — the synthetic
// fleet has no IBMon to measure real rates).
type shardSchedArrival struct {
	spec schedshard.Spec
	vm   schedshard.VMInfo
}

// lsArrival is a latency-sensitive VM with a 64 KB buffer at 2 MB/s.
func lsArrival(name string) shardSchedArrival {
	spec := schedshard.Spec{Name: name, LatencySensitive: true, BufferSize: BaseBuffer}
	return shardSchedArrival{spec: spec, vm: schedshard.VMInfo{
		Spec: spec, BytesPerSec: 2e6, MTUsPerSec: 2e6 / 1024, BufferSize: BaseBuffer,
	}}
}

// bulkArrival is a large-buffer bulk VM at 60 MB/s.
func bulkArrival(name string) shardSchedArrival {
	spec := schedshard.Spec{Name: name, BufferSize: workload.BulkBuffer}
	return shardSchedArrival{spec: spec, vm: schedshard.VMInfo{
		Spec: spec, BytesPerSec: 60e6, MTUsPerSec: 60e6 / 1024, BufferSize: workload.BulkBuffer,
	}}
}

// shuffle permutes s in place with a Fisher–Yates pass seeded by seed.
func shuffle[T any](s []T, seed int64) {
	rng := sim.NewRand(seed)
	for i := len(s) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// shardSchedArrivals builds the arrival sequence: the abl-placement mix
// (~25% large-buffer bulk among latency-sensitive VMs) shuffled with the
// same seed for every sweep point, so every (mode, shards) cell places the
// identical workload and the curve isolates the scheduler.
func shardSchedArrivals(vms int, seed int64) []shardSchedArrival {
	out := make([]shardSchedArrival, 0, vms)
	nLS, nBulk := 0, 0
	for i := 0; i < vms; i++ {
		if i%4 == 3 {
			out = append(out, bulkArrival(fmt.Sprintf("bulk%d", nBulk)))
			nBulk++
		} else {
			out = append(out, lsArrival(fmt.Sprintf("ls%d", nLS)))
			nLS++
		}
	}
	shuffle(out, seed^0x51a4d5)
	return out
}

// shardSchedWaves is how many arrival batches the sequence is split into:
// each scheduling tick enqueues one wave and runs one round, so the
// scheduler sees sustained churn instead of one giant batch.
const shardSchedWaves = 40

// runSchedWaves drives one (mode, shards) cell over a synthetic fleet of
// hosts: a bare engine ticks the scheduler — enqueue a wave of units, run a
// round — 48 times across the run window, then drains whatever the window
// did not finish, and returns the drained scheduler. enqueue submits one
// arrival unit. All scheduling state is virtual-time-driven, so the armed
// snapshot breakpoint at T sees a mid-drain scheduler whose state must
// replay byte-identically.
func runSchedWaves[T any](o Options, hosts int, mode string, shards int, units []T, enqueue func(*schedshard.Scheduler, T)) *schedshard.Scheduler {
	eng := sim.New()
	store := schedshard.NewStore()
	store.Publish(shardSchedHosts(hosts))
	sched := schedshard.NewScheduler(store, schedshard.Config{
		Shards:         shards,
		Workers:        o.ShardWorkers,
		Seed:           o.Seed,
		AvoidConflicts: mode == "avoid",
	})
	stopAudit := o.observe(eng, &snapshot.Source{Sched: sched})

	perWave := (len(units) + shardSchedWaves - 1) / shardSchedWaves
	wave := 0
	enqueueWave := func() {
		// A unit can be a whole gang, so the list can be shorter than
		// waves²/waves — clamp both ends.
		lo := min(wave*perWave, len(units))
		hi := min(lo+perWave, len(units))
		for _, u := range units[lo:hi] {
			enqueue(sched, u)
		}
		wave++
	}

	window := o.Warmup + o.Duration
	tick := window / 48
	if tick <= 0 {
		tick = 1
	}
	var step func()
	step = func() {
		if wave < shardSchedWaves {
			enqueueWave()
		}
		sched.Round()
		if wave < shardSchedWaves || sched.PendingLen() > 0 {
			eng.After(tick, step)
		}
	}
	eng.After(tick, step)
	eng.RunUntil(window)
	stopAudit()
	// Finish whatever the window did not cover (short CI runs): the
	// breakpoint has already fired at T, so the tail is outside any
	// capture — and it is as deterministic as the ticked part.
	for wave < shardSchedWaves {
		enqueueWave()
		sched.Round()
	}
	sched.Run()
	eng.Shutdown()
	return sched
}

// conflictPct is conflicts over all proposals (commits + conflicts).
func conflictPct(sched *schedshard.Scheduler) float64 {
	total := uint64(len(sched.Bound())) + sched.Conflicts()
	if total == 0 {
		return 0
	}
	return 100 * float64(sched.Conflicts()) / float64(total)
}

// schedGrid runs cell over both tie-break modes — "naive" (every shard
// breaks score ties toward the lowest node) then "avoid" (per-shard rotated
// tie-break) — and the logical shard counts {1, 2, 4, 8, 16}.
func schedGrid[R any](o Options, cell func(o Options, mode string, shards int) R) ([]R, error) {
	var points []func(Options) (R, error)
	for _, mode := range []string{"naive", "avoid"} {
		for _, shards := range []int{1, 2, 4, 8, 16} {
			points = append(points, func(o Options) (R, error) { return cell(o, mode, shards), nil })
		}
	}
	return RunSweep(o, points)
}

// runShardSchedPoint drives one (mode, shards) cell of abl-shardsched.
func runShardSchedPoint(o Options, mode string, shards int) AblShardSchedRow {
	hosts, vms := shardSchedScale(o)
	sched := runSchedWaves(o, hosts, mode, shards, shardSchedArrivals(vms, o.Seed),
		func(s *schedshard.Scheduler, a shardSchedArrival) { s.Enqueue(a.spec, a.vm) })
	row := AblShardSchedRow{
		Mode:        mode,
		Shards:      shards,
		Rounds:      sched.Rounds(),
		Placed:      len(sched.Bound()),
		Failed:      len(sched.Failed()),
		Conflicts:   sched.Conflicts(),
		ConflictPct: conflictPct(sched),
		Retries:     sched.Retries(),
		BindFNV:     fmt.Sprintf("%016x", sched.BindFNV()),
	}
	for _, h := range sched.Store().Snapshot().Hosts {
		bulk, ls := 0, 0
		for _, vm := range h.VMs {
			if vm.EffectiveBuffer() >= 256<<10 {
				bulk++
			} else if vm.Spec.LatencySensitive {
				ls++
			}
		}
		if bulk > 0 {
			row.Coloc += ls
		}
	}
	return row
}

// AblShardSched runs the (mode × shard count) grid on the synthetic fleet.
// Every cell places the same seeded arrival sequence. One logical shard is
// the serial scheduler (zero conflicts by construction); the curve shows
// what optimistic concurrency costs as shards multiply, and what the
// rotated tie-break buys back.
func AblShardSched(o Options) (*AblShardSchedResult, error) {
	o = o.WithDefaults()
	hosts, vms := shardSchedScale(o)
	rows, err := schedGrid(o, runShardSchedPoint)
	if err != nil {
		return nil, err
	}
	return &AblShardSchedResult{Hosts: hosts, VMs: vms, Rows: rows}, nil
}
