package hca

import (
	"reflect"
	"testing"

	"resex/internal/sim"
)

// runTraffic drives a deterministic send/recv mix over the two-host rig and
// returns both adapters' exports at 5ms.
func runTraffic(t *testing.T, midCheckpoint bool) (State, State) {
	t.Helper()
	r := newRig(t)
	qp1, _, _, qp2, _, _ := r.connect(t, 32)
	src := r.mem1.Alloc(256<<10, 64)
	dst := r.mem2.Alloc(256<<10, 64)
	mr1, _ := r.pd1.RegisterMR(src, 256<<10, 0)
	mr2, _ := r.pd2.RegisterMR(dst, 256<<10, AccessLocalWrite)
	for i := 0; i < 8; i++ {
		if err := qp2.PostRecv(RecvWR{ID: uint64(100 + i), Addr: dst, LKey: mr2.Key(), Len: 256 << 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		r.eng.Schedule(sim.Time(i)*200*sim.Microsecond, func() {
			sz := 32 << 10
			if i%2 == 1 {
				sz = 64 << 10
			}
			if err := qp1.PostSend(SendWR{ID: uint64(i), LocalAddr: src, LKey: mr1.Key(), Len: sz}); err != nil {
				t.Errorf("post %d: %v", i, err)
			}
		})
	}
	if midCheckpoint {
		r.eng.Breakpoint(700*sim.Microsecond, func() {
			_ = r.h1.Checkpoint()
			_ = r.h2.Checkpoint()
		})
	}
	r.eng.RunUntil(5 * sim.Millisecond)
	return r.h1.Checkpoint(), r.h2.Checkpoint()
}

// TestCheckpointEquality: identical traffic leaves identical adapter
// ledgers, and mid-run exports do not perturb the run.
func TestCheckpointEquality(t *testing.T) {
	a1, a2 := runTraffic(t, false)
	b1, b2 := runTraffic(t, false)
	if !reflect.DeepEqual(a1, b1) || !reflect.DeepEqual(a2, b2) {
		t.Fatalf("same-run exports differ:\nh1 %+v vs %+v\nh2 %+v vs %+v", a1, b1, a2, b2)
	}
	c1, c2 := runTraffic(t, true)
	if !reflect.DeepEqual(a1, c1) || !reflect.DeepEqual(a2, c2) {
		t.Fatal("mid-run Checkpoint perturbed the traffic")
	}
	if a1.MsgsSent != 8 {
		t.Fatalf("h1 export shows %d sends, want 8", a1.MsgsSent)
	}
	if len(a1.QPs) == 0 || len(a1.CQs) == 0 {
		t.Fatal("export missing QP/CQ ledgers")
	}
}
