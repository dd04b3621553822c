package cluster

import (
	"runtime"
	"testing"
	"unsafe"

	"resex/internal/benchex"
	"resex/internal/fabric"
	"resex/internal/hca"
	"resex/internal/sim"
)

// msgLen is the size of the interferer's message in the paper.
const msgLen = 2 << 20

// sendRig is a fresh 2-host testbed with one connected QP pair, ready to
// send msgLen bytes from host 1 to host 2. send posts one receive at host 2
// and one SEND at host 1, then steps the engine until the sender
// completion.
func sendRig(t *testing.T) (tb *Testbed, send func()) {
	tb = New(Config{Hosts: 2})
	a, b := tb.Hosts[0], tb.Hosts[1]
	va, vb := a.NewVM("sender"), b.NewVM("target")
	src := va.PD.Space().Alloc(msgLen, 64)
	dst := vb.PD.Space().Alloc(msgLen, 64)
	mra, err := va.PD.RegisterMR(src, msgLen, 0)
	if err != nil {
		t.Fatal(err)
	}
	mrb, err := vb.PD.RegisterMR(dst, msgLen, hca.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	scq := va.PD.CreateCQ(16)
	qpa := va.PD.CreateQP(scq, va.PD.CreateCQ(16), 16, 16)
	qpb := vb.PD.CreateQP(vb.PD.CreateCQ(16), vb.PD.CreateCQ(16), 16, 16)
	if err := ConnectQPs(qpa, qpb, a, b); err != nil {
		t.Fatal(err)
	}

	send = func() {
		if err := qpb.PostRecv(hca.RecvWR{ID: 1, Addr: dst, LKey: mrb.Key(), Len: msgLen}); err != nil {
			t.Fatal(err)
		}
		if err := qpa.PostSend(hca.SendWR{ID: 1, LocalAddr: src, LKey: mra.Key(), Len: msgLen}); err != nil {
			t.Fatal(err)
		}
		for scq.Pending() == 0 {
			if !tb.Eng.Step() {
				t.Fatal("engine drained before the send completed")
			}
		}
		if e, _ := scq.Poll(); e.Status != hca.StatusOK || e.ByteLen != msgLen {
			t.Fatalf("completion = %+v", e)
		}
	}
	return tb, send
}

func TestSendPerMTUAllocs(t *testing.T) {
	// A 2 MB SEND end to end — PostSend, uplink, switch, downlink,
	// HCA.Deliver, receive and sender completions — allocates per message,
	// not per MTU: packets are recycled and every per-MTU event is a
	// pre-bound callback.
	tb, send := sendRig(t)
	a := tb.Hosts[0]
	// AllocsPerRun's own warm-up call is the warm-up message.
	allocs := testing.AllocsPerRun(10, send)
	mtus := float64(msgLen / fabric.DefaultMTU)
	if perMTU := allocs / mtus; perMTU > 0.01 {
		t.Errorf("%.1f allocs per 2 MB send = %.4f per MTU, want at most 0.01", allocs, perMTU)
	}
	if got := a.Uplink.Stats().Packets; got != 11*int64(mtus) {
		t.Errorf("uplink carried %d packets, want %d", got, 11*int64(mtus))
	}
	tb.Eng.Shutdown()
}

func TestColdSendAllocs(t *testing.T) {
	// The first 2 MB send on a fresh testbed allocates fewer bytes than 256
	// Packets occupy: the uplink builds each MTU's packet only when it
	// starts serializing, so the sender's free list grows to the few MTUs
	// on the wire, not to the 2048 queued behind them.
	tb, send := sendRig(t)
	budget := 256 * unsafe.Sizeof(fabric.Packet{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(budget) {
		t.Errorf("first 2 MB send on a fresh testbed allocated %d bytes, want under %d (256 packets)", got, budget)
	} else {
		t.Logf("first 2 MB send allocated %d bytes", got)
	}
	tb.Eng.Shutdown()
}

func TestBenchExRequestAllocs(t *testing.T) {
	// A warm 64 KB BenchEx client/server pair on two hosts allocates
	// nothing per request: the WQE queues are rings, messages come from the
	// HCA free list, waits keep their state on the process, the client
	// encodes into a ring of send buffers, and guest memory already holds
	// every chunk the request path writes. What is left is the latency
	// sample's amortized growth.
	tb := New(Config{Hosts: 2})
	app, err := tb.NewApp("app", tb.Hosts[1], tb.Hosts[0],
		benchex.ServerConfig{BufferSize: 64 << 10}, benchex.ClientConfig{BufferSize: 64 << 10, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	app.Start()
	// Warm up until every 1024-entry CQ ring has wrapped, so that all its
	// chunks exist.
	tb.Eng.RunUntil(250 * sim.Millisecond)
	const slice = 20 * sim.Millisecond
	run := func() { tb.Eng.RunUntil(tb.Eng.Now() + slice) }
	before := app.Client.Stats().Received
	const runs = 5
	allocs := testing.AllocsPerRun(runs, run) // plus one warm-up run
	perRun := float64(app.Client.Stats().Received-before) / (runs + 1)
	if perRun < 50 {
		t.Fatalf("only %.0f requests per %v", perRun, slice)
	}
	if perReq := allocs / perRun; perReq > 0.01 {
		t.Errorf("%.1f allocs per %.0f requests = %.4f per request, want at most 0.01", allocs, perRun, perReq)
	}
	tb.Eng.Shutdown()
}
