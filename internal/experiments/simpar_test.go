package experiments

import (
	"testing"

	"resex/internal/sim"
)

// TestAblSimParShardInvariance is the determinism gate on the logical shard
// axis: within one table, every row of a fleet-size group must be identical
// except the shards column. (The worker axes, SimShards and Parallel, are
// covered for every driver by TestResumeSweepAllDrivers.)
func TestAblSimParShardInvariance(t *testing.T) {
	t.Parallel()
	res, err := AblSimPar(Options{Duration: 40 * sim.Millisecond, Warmup: 10 * sim.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	groups := map[int][]AblSimParRow{}
	for _, r := range res.Rows {
		groups[r.Sites] = append(groups[r.Sites], r)
	}
	if len(groups) < 2 {
		t.Fatalf("only %d fleet sizes in %d rows", len(groups), len(res.Rows))
	}
	for sites, rows := range groups {
		if len(rows) != len(simParShardAxis) {
			t.Fatalf("sites=%d swept %d shard counts, want %d", sites, len(rows), len(simParShardAxis))
		}
		first := rows[0]
		for _, r := range rows[1:] {
			norm := r
			norm.Shards = first.Shards
			if norm != first {
				t.Errorf("sites=%d: shards=%d row differs beyond the shards column:\n%+v\nvs\n%+v",
					sites, r.Shards, r, first)
			}
		}
		if first.Windows == 0 || first.Messages == 0 || first.LocalServed == 0 || first.ReplServed == 0 {
			t.Errorf("sites=%d: degenerate row %+v", sites, first)
		}
		if first.LocalMeanUs <= 0 {
			t.Errorf("sites=%d: no local latency signal: %+v", sites, first)
		}
	}
}

// TestBuildSimParFleetShape pins the fleet constructor: one site per node,
// the interconnect delay equal to the published backbone constant and at
// least the coordinator's lookahead, and the shard map covering every site.
func TestBuildSimParFleetShape(t *testing.T) {
	t.Parallel()
	f, err := BuildSimParFleet(4, 2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Co.Shutdown()
	if d := f.Ic.Delay(); d != SimParBackbone {
		t.Errorf("backbone delay = %v, want %v", d, SimParBackbone)
	}
	if f.Co.Lookahead() > f.Ic.Delay() {
		t.Errorf("lookahead %v exceeds backbone delay %v", f.Co.Lookahead(), f.Ic.Delay())
	}
	if n := len(f.Co.Hosts()); n != 4 {
		t.Errorf("coordinator owns %d hosts, want 4", n)
	}
	for _, h := range f.Co.Hosts() {
		if f.Ic.Site(h.ID()) == nil {
			t.Errorf("host %d has no interconnect site", h.ID())
		}
	}
}
