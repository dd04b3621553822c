package workload

import (
	"testing"

	"resex/internal/resex"
	"resex/internal/sim"
)

// TestAdmissionEdges pins the degenerate corners of the queue cap: a cap
// of one admits only into an empty queue.
func TestAdmissionEdges(t *testing.T) {
	cases := []struct {
		name   string
		queued int
		want   bool
	}{
		{"queue-cap-1/empty-queue", 0, true},
		{"queue-cap-1/at-cap", 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := admits(1, tc.queued); got != tc.want {
				t.Fatalf("QueueCap 1 with %d queued: admitted %v, want %v", tc.queued, got, tc.want)
			}
		})
	}
}

// admits reports whether an open-loop arrival enters the queue of a tenant
// with the given QueueCap and queued arrivals.
func admits(queueCap, queued int) bool {
	tn := &Tenant{Spec: TenantSpec{QueueCap: queueCap}}
	for i := 0; i < queued; i++ {
		tn.queue.Push(0)
	}
	tn.arrive(0)
	return tn.shed == 0
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
