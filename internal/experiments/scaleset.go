package experiments

import (
	"fmt"
	"io"

	"resex/internal/schedshard"
	"resex/internal/workload"
)

// ---------------------------------------------------------------------------
// abl-scaleset: gang-placed scale-sets through the optimistic multi-shard
// scheduler — the all-or-nothing admission table.
//
// The arrival stream mixes arktos-style scale-sets (N identical VMs that
// must bind atomically; see workload.ScaleSetSpec and
// schedshard.Scheduler.EnqueueGang) with singleton VMs of the abl-placement
// mix. The sweep drives the identical seeded stream through 1..16 logical
// shards in both tie-break modes: more shards mean more optimistic
// collisions, and a colliding gang loses *whole* — every member requeues and
// the gang retries as a unit against the refreshed snapshot. The table's
// SLO is admission: attain% is the fraction of gangs eventually placed, and
// the partial column — gangs observed committed at partial strength — must
// read 0 at every width (the invariant auditor's gang-atomicity predicate
// checks the same thing continuously under -audit).
// ---------------------------------------------------------------------------

// AblScaleSetRow is one (mode, shard count) outcome over the synthetic
// fleet.
type AblScaleSetRow struct {
	// Mode is the score-tie-break policy, exactly as in abl-shardsched:
	// "naive" herds, "avoid" rotates per shard.
	Mode string `col:"mode,%-6s,mode"`
	// Shards is the logical shard count (the semantic axis).
	Shards int `col:"shards,%7d,shards"`
	// Rounds is how many propose→merge→commit cycles draining the stream
	// took.
	Rounds uint64 `col:"rounds,%7d,rounds"`
	// Placed and Failed partition the individual binds (gang members and
	// singletons alike).
	Placed int `col:"placed,%7d,placed"`
	Failed int `col:"failed,%7d,failed"`
	// GangsPlaced/GangsFailed/GangsPartial are the scheduler's lifetime gang
	// accounting: placed whole, declared unplaceable, or — the invariant
	// violation this table exists to rule out — committed at partial
	// strength. Partial must be 0 in every row.
	GangsPlaced  uint64 `col:"gangs+,%7d,gangs_placed"`
	GangsFailed  uint64 `col:"gangs-,%7d,gangs_failed"`
	GangsPartial uint64 `col:"partial,%8d,gangs_partial"`
	// AttainPct is gang admission attainment: placed gangs over all gangs.
	AttainPct float64 `col:"attain%,%8.1f,attain_pct"`
	// Conflicts counts binds rejected at commit (a whole gang rejection
	// counts every member); ConflictPct is conflicts over all proposals.
	Conflicts   uint64  `col:"conflicts,%10d,conflicts"`
	ConflictPct float64 `col:"conflict%,%10.2f,conflict_pct"`
	// Retries counts requeued requests (conflict losers + starved, gang
	// members individually).
	Retries uint64 `col:"retries,%8d,retries"`
	// BindFNV fingerprints the full bind sequence, hex — compared across
	// worker counts and restore paths by the determinism gates.
	BindFNV string `col:"bind-fnv,%17s,bind_fnv"`
}

// AblScaleSetResult is the admission table across shard counts and modes.
type AblScaleSetResult struct {
	Hosts   int
	Gangs   int
	GangVMs int
	Singles int
	Rows    []AblScaleSetRow
}

// Title implements Result.
func (r *AblScaleSetResult) Title() string {
	return "ScaleSet: gang-placed scale-sets, all-or-nothing admission vs shard count"
}

// WriteText implements Result.
func (r *AblScaleSetResult) WriteText(w io.Writer) error {
	return writeTable(w, fmt.Sprintf("%s (%d hosts, %d gangs / %d gang VMs, %d singletons)", r.Title(), r.Hosts, r.Gangs, r.GangVMs, r.Singles), r.Rows)
}

// WriteCSV implements Result.
func (r *AblScaleSetResult) WriteCSV(w io.Writer) error { return writeCSV(w, r.Rows) }

// scaleSetHosts is the fleet size at the full 2 s window (see fleetHosts).
const scaleSetHosts = 600

// scaleSetSizes is the gang-size cycle: small web tiers through chunky
// 24-member batch sets, so rounds carry gangs that fit one host's headroom
// next to gangs that must span several.
var scaleSetSizes = []int{4, 8, 12, 16, 24}

// scaleSetItem is one arrival: a whole scale-set (set != nil) or a
// singleton of the abl-placement mix.
type scaleSetItem struct {
	set    *workload.ScaleSetSpec
	single shardSchedArrival
}

// scaleSetArrivals builds the arrival stream: scale-sets cycling through
// scaleSetSizes (every third one a large-buffer bulk tier) interleaved with
// two singletons each, filling ~80% of the fleet's guest slots, then
// shuffled with the same seed for every sweep point — every (mode, shards)
// cell places the identical stream, so the table isolates the scheduler.
func scaleSetArrivals(hosts int, seed int64) (items []scaleSetItem, gangs, gangVMs, singles int) {
	budget := hosts * shardSchedPCPUs * 4 / 5
	used := 0
	nLS, nBulk := 0, 0
	for used < budget {
		size := scaleSetSizes[gangs%len(scaleSetSizes)]
		set := &workload.ScaleSetSpec{
			Name: fmt.Sprintf("set%d", gangs), Size: size,
			LatencySensitive: true, BufferSize: BaseBuffer,
			BytesPerSec: 2e6,
		}
		if gangs%3 == 2 {
			set.LatencySensitive = false
			set.BufferSize = workload.BulkBuffer
			set.BytesPerSec = 60e6
		}
		items = append(items, scaleSetItem{set: set})
		gangs++
		gangVMs += size
		used += size
		for k := 0; k < 2 && used < budget; k++ {
			var a shardSchedArrival
			if singles%4 == 3 {
				a = bulkArrival(fmt.Sprintf("solo-bulk%d", nBulk))
				nBulk++
			} else {
				a = lsArrival(fmt.Sprintf("solo-ls%d", nLS))
				nLS++
			}
			items = append(items, scaleSetItem{single: a})
			singles++
			used++
		}
	}
	shuffle(items, seed^0x5ca1e5e7)
	return items, gangs, gangVMs, singles
}

// runScaleSetPoint drives one (mode, shards) cell of abl-scaleset.
func runScaleSetPoint(o Options, mode string, shards int) AblScaleSetRow {
	hosts := fleetHosts(o, scaleSetHosts)
	items, gangs, _, _ := scaleSetArrivals(hosts, o.Seed)
	sched := runSchedWaves(o, hosts, mode, shards, items,
		func(s *schedshard.Scheduler, it scaleSetItem) {
			if it.set != nil {
				workload.EnqueueScaleSet(s, *it.set)
			} else {
				s.Enqueue(it.single.spec, it.single.vm)
			}
		})
	gs := sched.Gangs()
	row := AblScaleSetRow{
		Mode:         mode,
		Shards:       shards,
		Rounds:       sched.Rounds(),
		Placed:       len(sched.Bound()),
		Failed:       len(sched.Failed()),
		GangsPlaced:  gs.Placed,
		GangsFailed:  gs.Failed,
		GangsPartial: gs.Partial,
		Conflicts:    sched.Conflicts(),
		ConflictPct:  conflictPct(sched),
		Retries:      sched.Retries(),
		BindFNV:      fmt.Sprintf("%016x", sched.BindFNV()),
	}
	if gangs > 0 {
		row.AttainPct = 100 * float64(gs.Placed) / float64(gangs)
	}
	return row
}

// AblScaleSet runs the (mode × shard count) grid over the gang-heavy
// stream. One logical shard is the
// serial scheduler — zero conflicts, every gang placed first try; the curve
// shows what gang atomicity costs under optimistic concurrency (a 24-member
// gang is 24 chances to collide and one collision requeues all 24) and that
// the partial column stays pinned at 0 regardless.
func AblScaleSet(o Options) (*AblScaleSetResult, error) {
	o = o.WithDefaults()
	hosts := fleetHosts(o, scaleSetHosts)
	_, gangs, gangVMs, singles := scaleSetArrivals(hosts, o.Seed)
	rows, err := schedGrid(o, runScaleSetPoint)
	if err != nil {
		return nil, err
	}
	return &AblScaleSetResult{Hosts: hosts, Gangs: gangs, GangVMs: gangVMs, Singles: singles, Rows: rows}, nil
}
