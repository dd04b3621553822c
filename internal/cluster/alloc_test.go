package cluster

import (
	"runtime"
	"testing"
	"unsafe"

	"resex/internal/benchex"
	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
)

// msgLen is the size of the interferer's message in the paper.
const msgLen = 2 << 20

// sendRig is a fresh 2-host testbed with one connected QP pair, ready to
// send msgLen bytes from host 1 to host 2. send posts one receive at host 2
// and one SEND at host 1, then runs the engine a microsecond at a time
// until the sender completion.
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
			if tb.Eng.Pending() == 0 {
				t.Fatal("engine drained before the send completed")
			}
			tb.Eng.RunUntil(tb.Eng.Now() + sim.Microsecond)
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

func TestIncastQueuesRuns(t *testing.T) {
	// Three hosts each post a 2 MB SEND to one receiver on a fresh testbed.
	// The receiver's downlink takes 3 GB/s in and drains 1 GB/s, so most of
	// the 6144 MTUs wait there. It queues each message as runs that later
	// MTUs extend, rebuilding a packet only when it reaches the wire: the
	// queue storage and the packet slabs stay at the few MTUs in flight.
	// Flows on a downlink are keyed by the sender's QPN alone, so each
	// sender's QP gets its own QPN here: QPs that shared one would share a
	// flow queue and interleave, one entry per MTU.
	tb := New(Config{Hosts: 4})
	rx := tb.Hosts[3]
	vr := rx.NewVM("receiver")
	dst := vr.PD.Space().Alloc(3*msgLen, 64)
	mrr, err := vr.PD.RegisterMR(dst, 3*msgLen, hca.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	var posts []func()
	var cqs []*hca.CQ
	for k, h := range tb.Hosts[:3] {
		vs := h.NewVM("sender")
		for i := 0; i < k; i++ {
			vs.PD.CreateQP(vs.PD.CreateCQ(1), vs.PD.CreateCQ(1), 1, 1) // moves the next QPN on
		}
		src := vs.PD.Space().Alloc(msgLen, 64)
		mrs, err := vs.PD.RegisterMR(src, msgLen, 0)
		if err != nil {
			t.Fatal(err)
		}
		scq := vs.PD.CreateCQ(16)
		qs := vs.PD.CreateQP(scq, vs.PD.CreateCQ(16), 16, 16)
		qr := vr.PD.CreateQP(vr.PD.CreateCQ(16), vr.PD.CreateCQ(16), 16, 16)
		if err := ConnectQPs(qs, qr, h, rx); err != nil {
			t.Fatal(err)
		}
		at := dst + guestmem.Addr(k*msgLen)
		if err := qr.PostRecv(hca.RecvWR{ID: 1, Addr: at, LKey: mrr.Key(), Len: msgLen}); err != nil {
			t.Fatal(err)
		}
		cqs = append(cqs, scq)
		posts = append(posts, func() {
			if err := qs.PostSend(hca.SendWR{ID: 1, LocalAddr: src, LKey: mrs.Key(), Len: msgLen}); err != nil {
				t.Fatal(err)
			}
		})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, post := range posts {
		post()
	}
	tb.Eng.Run()
	runtime.ReadMemStats(&after)

	for k, cq := range cqs {
		if e, ok := cq.Poll(); !ok || e.Status != hca.StatusOK || e.ByteLen != msgLen {
			t.Errorf("sender %d completion = %+v, %v", k, e, ok)
		}
	}
	down := rx.Downlink
	if got, want := down.Stats().Packets, int64(3*msgLen/fabric.DefaultMTU); got != want {
		t.Errorf("receiver downlink carried %d packets, want %d", got, want)
	}
	if q := down.Stats().MaxQueued; q < 2048 {
		t.Errorf("receiver downlink peaked at %d queued MTUs, want an incast backlog of at least 2048", q)
	}
	if c := down.QueueCap(); c > 64 {
		t.Errorf("receiver downlink queues grew to %d entries, want at most 64", c)
	}
	const budget = 32 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("3 × 2 MB incast on a fresh testbed allocated %d bytes, want under %d", got, budget)
	} else {
		t.Logf("3 × 2 MB incast allocated %d bytes, downlink peaked at %d MTUs in %d queue entries",
			got, down.Stats().MaxQueued, down.QueueCap())
	}
	tb.Eng.Shutdown()
}
