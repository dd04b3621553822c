package experiments

import (
	"testing"

	"resex/internal/sim"
)

// TestAblShardSchedCurveShape pins the experiment's semantic claims on a
// small fleet: every cell places the full workload, one shard never
// conflicts (its row equal in both modes), conflicts grow with shard count
// in naive mode, and the rotated tie-break conflicts no more than naive at
// every shard count.
func TestAblShardSchedCurveShape(t *testing.T) {
	t.Parallel()
	o := Options{Duration: 80 * sim.Millisecond, Warmup: 10 * sim.Millisecond, Seed: 7}
	res, err := AblShardSched(o)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10 (2 modes x 5 shard counts)", len(rows))
	}
	byMode := map[string]map[int]AblShardSchedRow{}
	for _, r := range rows {
		if r.Placed+r.Failed != res.VMs {
			t.Errorf("%s s=%d: placed %d + failed %d != %d VMs", r.Mode, r.Shards, r.Placed, r.Failed, res.VMs)
		}
		if r.Failed != 0 {
			t.Errorf("%s s=%d: %d unplaceable VMs on a fleet with headroom", r.Mode, r.Shards, r.Failed)
		}
		if byMode[r.Mode] == nil {
			byMode[r.Mode] = map[int]AblShardSchedRow{}
		}
		byMode[r.Mode][r.Shards] = r
	}
	for _, mode := range []string{"naive", "avoid"} {
		if byMode[mode][1].Conflicts != 0 {
			t.Errorf("%s s=1 conflicted %d times; one shard cannot race itself", mode, byMode[mode][1].Conflicts)
		}
	}
	// One shard: the tie-break rotation is inert, rows must agree exactly
	// (up to the mode label).
	a, n := byMode["avoid"][1], byMode["naive"][1]
	a.Mode = n.Mode
	if a != n {
		t.Errorf("s=1 rows differ between modes:\n naive %+v\n avoid %+v", n, a)
	}
	if byMode["naive"][16].Conflicts <= byMode["naive"][1].Conflicts {
		t.Errorf("naive conflicts do not grow with shards: s=1 %d, s=16 %d",
			byMode["naive"][1].Conflicts, byMode["naive"][16].Conflicts)
	}
	for _, s := range []int{2, 4, 8, 16} {
		if a, n := byMode["avoid"][s].Conflicts, byMode["naive"][s].Conflicts; a > n {
			t.Errorf("s=%d: avoid conflicts %d > naive %d", s, a, n)
		}
	}
}
