package experiments

import (
	"strings"
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

// TestBuildSimParFleetShape pins the geo ring both ring drivers build: one
// site per node, the interconnect delay equal to the published backbone
// constant and at least the coordinator's lookahead, the shard map covering
// every site, and a closed replication ring — site i's stream client lives
// on site i and is connected to site i+1's stream server, which serves it.
func TestBuildSimParFleetShape(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		build func() (*geoRing, error)
	}{
		{"simpar", func() (*geoRing, error) {
			f, err := BuildSimParFleet(4, 2, 1, 7)
			if err != nil {
				return nil, err
			}
			return f.geoRing, nil
		}},
		{"geodiurnal", func() (*geoRing, error) {
			f, err := BuildGeoFleet(4, 2, 1, 1, 7, 4*sim.Millisecond)
			if err != nil {
				return nil, err
			}
			return f.geoRing, nil
		}},
	} {
		r, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := r.Ic.Delay(); d != SimParBackbone {
			t.Errorf("%s: backbone delay = %v, want %v", tc.name, d, SimParBackbone)
		}
		if r.Co.Lookahead() > r.Ic.Delay() {
			t.Errorf("%s: lookahead %v exceeds backbone delay %v", tc.name, r.Co.Lookahead(), r.Ic.Delay())
		}
		if n := len(r.Co.Hosts()); n != 4 {
			t.Errorf("%s: coordinator owns %d hosts, want 4", tc.name, n)
		}
		for _, h := range r.Co.Hosts() {
			if r.Ic.Site(h.ID()) == nil {
				t.Errorf("%s: host %d has no interconnect site", tc.name, h.ID())
			}
		}
		for i, s := range r.sites {
			next := r.sites[(i+1)%len(r.sites)]
			name := strings.TrimSuffix(s.local.Server.Config().Name, "-local-server")
			nextName := strings.TrimSuffix(next.local.Server.Config().Name, "-local-server")
			if got := s.replClient.Config().Name; got != name+"-repl-cli" {
				t.Errorf("%s: site %d (%s) streams from client %q", tc.name, i, name, got)
			}
			if got := next.replServer.Config().Name; got != nextName+"-repl-srv" {
				t.Errorf("%s: site %d (%s) is served by %q", tc.name, i+1, nextName, got)
			}
			qp := s.replClient.Endpoint()
			node, qpn := qp.Remote()
			peer := next.host.HCA.QP(qpn)
			if s.host.HCA.QP(qp.QPN()) != qp || node != next.host.Node ||
				peer == nil || peer.SendCQ() != next.replServer.SendCQ() {
				t.Errorf("%s: %s-repl-cli is not connected to %s-repl-srv", tc.name, name, nextName)
			}
		}
		r.Run(Options{Warmup: sim.Millisecond, Duration: 4 * sim.Millisecond})
		for i, s := range r.sites {
			if s.replClient.Stats().Received == 0 || s.replServer.Stats().Served == 0 {
				t.Errorf("%s: replication ring open at site %d: client received %d, server served %d",
					tc.name, i, s.replClient.Stats().Received, s.replServer.Stats().Served)
			}
		}
	}
}
