package resex

import (
	"fmt"
	"strings"
	"testing"

	"resex/internal/experiments"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/workload"
)

// fingerprint runs the complete managed-interference scenario and returns a
// digest of everything observable: latencies, Reso balances, caps, rates,
// IBMon estimates, link counters.
func fingerprint(t *testing.T) string {
	t.Helper()
	s, err := experiments.Build(experiments.ScenarioConfig{
		IntfBuffer: workload.BulkBuffer,
		Policy:     resex.NewIOShares(),
		Timeline:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.TB.Eng.RunUntil(500 * sim.Millisecond)
	var b strings.Builder
	st := s.RepStats()
	fmt.Fprintf(&b, "served=%d total=%.6f/%.6f P=%.6f C=%.6f W=%.6f\n",
		st.Served, st.Total.Mean(), st.Total.StdDev(), st.P.Mean(), st.C.Mean(), st.W.Mean())
	cs := s.Reporters[0].Client.Stats()
	fmt.Fprintf(&b, "client=%d/%d lat=%.6f\n", cs.Sent, cs.Received, cs.Latency.Mean())
	for _, vm := range s.Mgr.VMs() {
		fmt.Fprintf(&b, "vm=%s rate=%.9f cap=%.3f bal=%d io=%d cpu=%d\n",
			vm.Dom.Name(), vm.Rate(), vm.Cap(), vm.Account.Balance(),
			vm.Account.IOCharged(), vm.Account.CPUCharged())
	}
	for _, tgt := range s.Mon.Targets() {
		u := tgt.Usage()
		fmt.Fprintf(&b, "ibmon dom=%d mtus=%d bytes=%d lost=%d buf=%d\n",
			tgt.Domain(), u.MTUsSent, u.BytesSent, u.Lost, u.BufferSize)
	}
	for _, h := range s.TB.Hosts {
		up, down := h.Uplink.Stats(), h.Downlink.Stats()
		fmt.Fprintf(&b, "host=%d up=%d/%d down=%d/%d\n",
			h.Node, up.Packets, up.Bytes, down.Packets, down.Bytes)
	}
	fmt.Fprintf(&b, "events=%d\n", s.TB.Eng.Steps())
	s.Shutdown()
	return b.String()
}

// TestFullStackDeterminism is the repository's strongest regression net:
// the entire stack — scheduler, fabric, HCA, IBMon, ResEx, BenchEx — must
// produce byte-identical state from identical seeds.
func TestFullStackDeterminism(t *testing.T) {
	a := fingerprint(t)
	b := fingerprint(t)
	if a != b {
		t.Fatalf("full-stack run is nondeterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	// And the fingerprint reflects a healthy run.
	if !strings.Contains(a, "vm=intf-server-vm") {
		t.Fatalf("fingerprint incomplete:\n%s", a)
	}
	for _, frag := range []string{"served=", "ibmon dom=", "host=1", "host=2", "events="} {
		if !strings.Contains(a, frag) {
			t.Errorf("fingerprint missing %q", frag)
		}
	}
}

// TestHeadlineClaim pins the paper's headline end to end at a fixed scale:
// IOShares recovers well over 30% of interference-induced latency.
func TestHeadlineClaim(t *testing.T) {
	r, err := experiments.Fig7(experiments.Options{
		Duration: 400 * sim.Millisecond,
		Warmup:   50 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.IntfMean <= r.BaseMean {
		t.Fatalf("no interference to recover: base %.1f, interfered %.1f", r.BaseMean, r.IntfMean)
	}
	rec := (r.IntfMean - r.PolicyMean) / (r.IntfMean - r.BaseMean)
	t.Logf("base %.1fµs, interfered %.1fµs, IOShares %.1fµs → %.0f%% recovered",
		r.BaseMean, r.IntfMean, r.PolicyMean, rec*100)
	if rec < 0.3 {
		t.Errorf("recovered %.0f%% < the paper's 30%% claim", rec*100)
	}
}
