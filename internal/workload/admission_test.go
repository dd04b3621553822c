package workload

import (
	"testing"

	"resex/internal/benchex"
	"resex/internal/resex"
	"resex/internal/sim"
)

// TestAdmissionEdges pins the degenerate corners of the queue cap: a
// zero-capacity cap is a total shed (0 < 0 never holds), and a cap of one
// admits only into an empty queue.
func TestAdmissionEdges(t *testing.T) {
	cases := []struct {
		name   string
		policy Admission
		state  AdmitState
		want   bool
	}{
		{"queue-cap-0/empty-queue", QueueCap{Max: 0}, AdmitState{QueueLen: 0}, false},
		{"queue-cap-0/backlog", QueueCap{Max: 0}, AdmitState{QueueLen: 7}, false},
		{"queue-cap-1/empty-queue", QueueCap{Max: 1}, AdmitState{QueueLen: 0}, true},
		{"queue-cap-1/at-cap", QueueCap{Max: 1}, AdmitState{QueueLen: 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.policy.Admit(tc.state); got != tc.want {
				t.Fatalf("%s.Admit(%+v) = %v, want %v", tc.policy.Name(), tc.state, got, tc.want)
			}
		})
	}
}

// TestQueueCapZeroShedsEverything drives a live tenant through the
// zero-capacity edge: every open-loop arrival must be shed at the door, so
// the tenant generates load on paper but never posts a byte.
func TestQueueCapZeroShedsEverything(t *testing.T) {
	e := New(Config{Hosts: 1, ClientPCPUs: 8})
	tn, err := e.AddTenant(TenantSpec{
		Name:      "walled",
		Arrivals:  benchex.Poisson{Rate: 2000},
		Admission: QueueCap{Max: 0},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.RunMeasured(20*sim.Millisecond, 200*sim.Millisecond)
	st := tn.Stats()
	if st.Arrivals == 0 {
		t.Fatal("no arrivals generated — load axis vacuous")
	}
	if st.Shed != st.Arrivals {
		t.Fatalf("QueueCap(0) admitted something: %d arrivals, %d shed", st.Arrivals, st.Shed)
	}
	if st.Issued != 0 || st.Completed != 0 || st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("fully-shed tenant did work: %+v", st)
	}
}

// TestEmptyTenantSet runs managed and unmanaged engines with no tenants at
// all: the epoch machinery, monitors and shutdown path must tolerate a rig
// with zero load and zero VMs.
func TestEmptyTenantSet(t *testing.T) {
	for _, policy := range []func() resex.Policy{nil, func() resex.Policy { return resex.NewFreeMarket() }} {
		e := New(Config{Hosts: 2, IntervalsPerEpoch: 50, Policy: policy})
		e.RunMeasured(10*sim.Millisecond, 120*sim.Millisecond)
		if len(e.Tenants()) != 0 {
			t.Fatalf("phantom tenants: %d", len(e.Tenants()))
		}
		for _, mgr := range e.Mgrs {
			if got := len(mgr.VMs()); got != 0 {
				t.Fatalf("manager holds %d VMs on an empty rig", got)
			}
		}
		if now := e.TB.Eng.Now(); now < 130*sim.Millisecond {
			t.Fatalf("engine stopped early at %v", now)
		}
	}
}
