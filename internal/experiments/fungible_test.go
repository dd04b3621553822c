package experiments

import (
	"testing"

	"resex/internal/sim"
)

// TestAblFungibleSeparation is the experiment-level acceptance gate at
// reduced scale: at every swept utilization the fungible economy's SLO
// attainment must be at least IOShares', the congested slow host must quote
// a fabric price above par under fungible, and bookless policies must settle
// no trades.
func TestAblFungibleSeparation(t *testing.T) {
	t.Parallel()
	res, err := AblFungible(Options{Duration: 300 * sim.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	byUtil := map[int]map[string]AblFungibleRow{}
	for _, r := range res.Rows {
		if byUtil[r.UtilPct] == nil {
			byUtil[r.UtilPct] = map[string]AblFungibleRow{}
		}
		byUtil[r.UtilPct][r.Policy] = r
		if r.LatP99 <= 0 || r.BulkMBps <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if len(byUtil) < 4 {
		t.Fatalf("swept %d utilizations in %d rows, want 4", len(byUtil), len(res.Rows))
	}
	for util, rows := range byUtil {
		fun, ios := rows["fungible"], rows["ioshares"]
		if fun.Policy == "" || ios.Policy == "" || rows["freemarket"].Policy == "" {
			t.Fatalf("util=%d: missing a policy row: %v", util, rows)
		}
		if fun.AttainPct < ios.AttainPct {
			t.Errorf("util=%d: fungible SLO %.1f below ioshares %.1f",
				util, fun.AttainPct, ios.AttainPct)
		}
		if fun.FabricPrice <= 1 {
			t.Errorf("util=%d: slow host quotes par (%.2f) under fungible load",
				util, fun.FabricPrice)
		}
		if ios.Trades != 0 || rows["freemarket"].Trades != 0 {
			t.Errorf("util=%d: bookless policy settled trades: %v", util, rows)
		}
	}
}
