package cluster

import (
	"testing"

	"resex/internal/hca"
)

func TestRDMAWritePerMTUAllocs(t *testing.T) {
	// A 2 MB RDMA write end to end — PostSend, uplink, switch, downlink,
	// HCA.Deliver, sender completion — allocates per message, not per MTU:
	// packets are recycled and every per-MTU event is a pre-bound callback.
	const msgLen = 2 << 20
	tb := New(Config{Hosts: 2})
	a, b := tb.Hosts[0], tb.Hosts[1]
	va, vb := a.NewVM("writer"), b.NewVM("target")
	src := va.PD.Space().Alloc(msgLen, 64)
	dst := vb.PD.Space().Alloc(msgLen, 64)
	mra, err := va.PD.RegisterMR(src, msgLen, 0)
	if err != nil {
		t.Fatal(err)
	}
	mrb, err := vb.PD.RegisterMR(dst, msgLen, hca.AccessRemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	scq := va.PD.CreateCQ(16)
	qpa := va.PD.CreateQP(scq, va.PD.CreateCQ(16), 16, 16)
	qpb := vb.PD.CreateQP(vb.PD.CreateCQ(16), vb.PD.CreateCQ(16), 16, 16)
	if err := ConnectQPs(qpa, qpb, a, b); err != nil {
		t.Fatal(err)
	}

	write := func() {
		err := qpa.PostSend(hca.SendWR{
			ID: 1, Op: hca.OpRDMAWrite, LocalAddr: src, LKey: mra.Key(),
			Len: msgLen, RemoteAddr: dst, RKey: mrb.Key(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for scq.Pending() == 0 {
			if !tb.Eng.Step() {
				t.Fatal("engine drained before the write completed")
			}
		}
		if e, _ := scq.Poll(); e.Status != hca.StatusOK || e.ByteLen != msgLen {
			t.Fatalf("completion = %+v", e)
		}
	}
	// AllocsPerRun's own warm-up call is the warm-up message.
	allocs := testing.AllocsPerRun(10, write)
	mtus := float64(msgLen / a.HCA.MTU())
	if perMTU := allocs / mtus; perMTU > 0.01 {
		t.Errorf("%.1f allocs per 2 MB write = %.4f per MTU, want at most 0.01", allocs, perMTU)
	}
	if got := a.Uplink.Stats().Packets; got != 11*int64(mtus) {
		t.Errorf("uplink carried %d packets, want %d", got, 11*int64(mtus))
	}
	tb.Eng.Shutdown()
}
