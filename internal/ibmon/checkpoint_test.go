package ibmon

import (
	"reflect"
	"testing"

	"resex/internal/sim"
)

// runMonitored watches the guest's send CQ, drives 40 SENDs, and
// returns the monitor's export at 20ms.
func runMonitored(t *testing.T, midCheckpoint bool) State {
	t.Helper()
	h := newHarness(t, 256)
	m := New(h.hv, nil, Config{Period: 100 * sim.Microsecond})
	if _, err := m.WatchCQ(h.guest.ID(), h.scq); err != nil {
		t.Fatal(err)
	}
	m.Start(h.eng)
	h.sendN(t, 40, 65536, 150*sim.Microsecond)
	if midCheckpoint {
		h.eng.Breakpoint(3*sim.Millisecond, func() { _ = m.Checkpoint() })
	}
	h.eng.RunUntil(20 * sim.Millisecond)
	m.Stop()
	return m.Checkpoint()
}

// TestCheckpointEquality: identical monitored runs export identical sampling
// state, and a mid-run export does not perturb the sampler.
func TestCheckpointEquality(t *testing.T) {
	a := runMonitored(t, false)
	b := runMonitored(t, false)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-run exports differ:\n%+v\n%+v", a, b)
	}
	c := runMonitored(t, true)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("mid-run Checkpoint perturbed the sampler:\n%+v\n%+v", a, c)
	}
	if len(a.Targets) != 1 {
		t.Fatalf("export holds %d targets, want 1", len(a.Targets))
	}
	if tgt := a.Targets[0]; tgt.Completions != 40 || tgt.MTUsSent != 40*64 {
		t.Fatalf("target counters off: %+v", tgt)
	}
}
