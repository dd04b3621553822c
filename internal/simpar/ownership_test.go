package simpar_test

import (
	"bytes"
	"testing"

	"resex/internal/cluster"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/simpar"
)

// pattern returns n bytes that identify message k.
func pattern(k, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(k*31 + i*7 + 1)
	}
	return b
}

// ownershipVM is one side of the ownership rig: a VM with one registered
// 1 MB buffer.
type ownershipVM struct {
	vm  *cluster.VM
	buf guestmem.Addr
	mr  *hca.MR
}

func newOwnershipVM(t *testing.T, h *cluster.Host, name string) *ownershipVM {
	t.Helper()
	vm := h.NewVM(name)
	const size = 1 << 20
	buf := vm.PD.Space().Alloc(size, 4096)
	mr, err := vm.PD.RegisterMR(buf, size, hca.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	return &ownershipVM{vm: vm, buf: buf, mr: mr}
}

// qp creates a QP of the given depth with its own send and receive CQs.
func (o *ownershipVM) qp(depth int) *hca.QP {
	return o.vm.PD.CreateQP(o.vm.PD.CreateCQ(256), o.vm.PD.CreateCQ(256), depth, depth)
}

// TestRecycledMessagesStayWithTheirEngine runs two hosts on two engines
// that simpar executes on two goroutines at once, with traffic that makes
// each HCA finish messages the other one built: sends that park on an empty
// receive queue (RNR) in both directions, responses whose payloads the
// responder hands over, and QPs destroyed on either side while their
// messages are on the wire. With an ack path installed, a finished message
// stays on the free list of the HCA that received it, so the recycled
// messages the race detector sees cross goroutines only through the
// coordinator's barrier. Every payload must land intact.
func TestRecycledMessagesStayWithTheirEngine(t *testing.T) {
	const delay = 20 * sim.Microsecond
	co := simpar.New(simpar.Config{Lookahead: delay, Shards: 2, Workers: 2})
	ic := simpar.NewInterconnect(co, delay)
	tb1, tb2 := cluster.New(cluster.Config{}), cluster.New(cluster.Config{})
	h1, h2 := tb1.AddHost(1), tb2.AddHost(2)
	ic.AddSite(tb1, h1)
	ic.AddSite(tb2, h2)
	a, b := newOwnershipVM(t, h1, "a"), newOwnershipVM(t, h2, "b")
	connect := func(depth int) (*hca.QP, *hca.QP) {
		qa, qb := a.qp(depth), b.qp(depth)
		if err := cluster.ConnectQPs(qa, qb, h1, h2); err != nil {
			t.Fatal(err)
		}
		return qa, qb
	}
	at := func(eng *sim.Engine, when sim.Time, fn func() error) {
		eng.Schedule(when, func() {
			if err := fn(); err != nil {
				t.Errorf("at %v: %v", when, err)
			}
		})
	}
	send := func(qp *hca.QP, o *ownershipVM, id, n int, payload []byte) func() error {
		return func() error {
			return qp.PostSend(hca.SendWR{
				ID: uint64(id), LocalAddr: o.buf, LKey: o.mr.Key(),
				Len: n, Payload: payload,
			})
		}
	}
	recvN := func(qp *hca.QP, o *ownershipVM, id int, addr guestmem.Addr, n int) func() error {
		return func() error {
			return qp.PostRecv(hca.RecvWR{ID: uint64(id), Addr: addr, LKey: o.mr.Key(), Len: n})
		}
	}
	recv := func(qp *hca.QP, o *ownershipVM, id int, addr guestmem.Addr) func() error {
		return recvN(qp, o, id, addr, 4096)
	}

	// Sends both ways whose receive buffers are posted only after the
	// messages arrived: each parks on the receiver's RNR queue first.
	// Sizes alternate between one and three MTUs.
	const sends = 24
	sizeOf := func(k int) int { return []int{72, 3000}[k%2] }
	sAB, rAB := connect(sends)
	rBA, sBA := connect(sends)
	const inboxAB, inboxBA = 0, 128 << 10
	for k := 0; k < sends; k++ {
		at(tb1.Eng, sim.Time(k)*3*sim.Microsecond, send(sAB, a, k, sizeOf(k), pattern(k, sizeOf(k))))
		at(tb2.Eng, sim.Time(k)*3*sim.Microsecond, send(sBA, b, k, sizeOf(k), pattern(100+k, sizeOf(k))))
		slot := guestmem.Addr(k * 4096)
		at(tb2.Eng, 300*sim.Microsecond+sim.Time(k)*5*sim.Microsecond, recv(rAB, b, k, b.buf+inboxAB+slot))
		at(tb1.Eng, 300*sim.Microsecond+sim.Time(k)*5*sim.Microsecond, recv(rBA, a, k, a.buf+inboxBA+slot))
	}

	// Responses from b into receive buffers a posted up front: each is a
	// message b builds from its free list, carrying a payload b owns, and a
	// finishes.
	const resps, respLen = 8, 2000
	const respDst = 256 << 10
	rqA, rsB := connect(resps)
	for k := 0; k < resps; k++ {
		off := guestmem.Addr(k * 4096)
		at(tb1.Eng, 0, recv(rqA, a, k, a.buf+respDst+off))
		at(tb2.Eng, sim.Time(k)*4*sim.Microsecond, send(rsB, b, k, respLen, pattern(200+k, respLen)))
	}

	// 64 KB sends to a QP that b destroys while the later ones are on the
	// wire, and 64 KB sends from a QP that a destroys once two have left
	// its send queue (the device takes one every ProcDelay).
	const big, bigs = 64 << 10, 4
	wA, wB := connect(bigs)
	dA, dB := connect(bigs)
	for k := 0; k < bigs; k++ {
		at(tb2.Eng, 0, recvN(wB, b, k, b.buf+512<<10, big))
		at(tb1.Eng, 0, send(wA, a, k, big, pattern(300+k, 64)))
		at(tb2.Eng, 0, recv(dB, b, k, b.buf+768<<10+guestmem.Addr(k*4096)))
		at(tb1.Eng, 0, send(dA, a, k, big, pattern(400+k, 64)))
	}
	tb2.Eng.Schedule(200*sim.Microsecond, func() { b.vm.PD.DestroyQP(wB) })
	tb1.Eng.Schedule(2*hca.ProcDelay+100, func() { a.vm.PD.DestroyQP(dA) })

	co.RunUntil(5 * sim.Millisecond)
	co.Shutdown()

	for k := 0; k < sends; k++ {
		slot := guestmem.Addr(k * 4096)
		got := make([]byte, sizeOf(k))
		b.vm.PD.Space().Read(b.buf+inboxAB+slot, got)
		if !bytes.Equal(got, pattern(k, sizeOf(k))) {
			t.Errorf("a→b send %d landed corrupted", k)
		}
		a.vm.PD.Space().Read(a.buf+inboxBA+slot, got)
		if !bytes.Equal(got, pattern(100+k, sizeOf(k))) {
			t.Errorf("b→a send %d landed corrupted", k)
		}
	}
	for _, qp := range []*hca.QP{sAB, sBA, rsB, wA} {
		if qp.CompletedSends() != qp.PostedSends() {
			t.Errorf("QP %#x: %d of %d sends completed", qp.QPN(), qp.CompletedSends(), qp.PostedSends())
		}
	}
	for k := 0; k < resps; k++ {
		got := make([]byte, respLen)
		a.vm.PD.Space().Read(a.buf+respDst+guestmem.Addr(k*4096), got)
		if !bytes.Equal(got, pattern(200+k, respLen)) {
			t.Errorf("response %d landed corrupted", k)
		}
	}
	failed := 0
	for {
		e, ok := wA.SendCQ().Poll()
		if !ok {
			break
		}
		if e.Status == hca.StatusRemoteAccessErr {
			failed++
		}
	}
	if failed == 0 || failed == bigs {
		t.Errorf("%d of %d sends failed at the destroyed QP, want some but not all", failed, bigs)
	}
	if dA.CompletedSends() != 2 || dB.CompletedRecvs() != 2 {
		t.Errorf("destroyed sender: %d flushed sends, %d delivered, want 2 and 2", dA.CompletedSends(), dB.CompletedRecvs())
	}
}

// TestCrossSiteIncastBuildsRunsOnTheReceiver has three sites stream 256 KB
// messages at a fourth on four engines that simpar runs on two goroutines.
// The receiver's downlink takes three links' worth of MTUs and drains one,
// so it queues runs of the senders' trains and rebuilds their packets. With
// an ack path installed it builds them from the receiving HCA's free list,
// which is also where they are released: the senders' lists, which their
// own uplinks are using on other goroutines, are never touched, and the race
// detector sees the senders' trains read only after the barrier that
// carried their first packets. Every payload must land intact.
func TestCrossSiteIncastBuildsRunsOnTheReceiver(t *testing.T) {
	const delay = 20 * sim.Microsecond
	const senders, msgs, size = 3, 4, 256 << 10
	co := simpar.New(simpar.Config{Lookahead: delay, Shards: 4, Workers: 2})
	ic := simpar.NewInterconnect(co, delay)
	tbr := cluster.New(cluster.Config{})
	hr := tbr.AddHost(senders + 1)
	ic.AddSite(tbr, hr)
	vr := hr.NewVM("receiver")
	inbox := vr.PD.Space().Alloc(senders*msgs*size, 4096)
	mrr, err := vr.PD.RegisterMR(inbox, senders*msgs*size, hca.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	var qps []*hca.QP
	for k := 0; k < senders; k++ {
		tb := cluster.New(cluster.Config{})
		h := tb.AddHost(k + 1)
		ic.AddSite(tb, h)
		o := newOwnershipVM(t, h, "sender")
		for i := 0; i < k; i++ {
			o.qp(1) // a QPN of its own: downlink flows are keyed by the sender's QPN
		}
		qs := o.qp(msgs)
		qr := vr.PD.CreateQP(vr.PD.CreateCQ(256), vr.PD.CreateCQ(256), msgs, msgs)
		if err := cluster.ConnectQPs(qs, qr, h, hr); err != nil {
			t.Fatal(err)
		}
		qps = append(qps, qs)
		for m := 0; m < msgs; m++ {
			id := k*msgs + m
			if err := qr.PostRecv(hca.RecvWR{ID: uint64(id), Addr: inbox + guestmem.Addr(id*size), LKey: mrr.Key(), Len: size}); err != nil {
				t.Fatal(err)
			}
			wr := hca.SendWR{ID: uint64(id), LocalAddr: o.buf, LKey: o.mr.Key(), Len: size, Payload: pattern(id, size)}
			tb.Eng.Schedule(0, func() {
				if err := qs.PostSend(wr); err != nil {
					t.Errorf("send %d: %v", id, err)
				}
			})
		}
	}

	co.RunUntil(20 * sim.Millisecond)
	co.Shutdown()

	for id := 0; id < senders*msgs; id++ {
		got := make([]byte, size)
		vr.PD.Space().Read(inbox+guestmem.Addr(id*size), got)
		if !bytes.Equal(got, pattern(id, size)) {
			t.Errorf("message %d landed corrupted", id)
		}
	}
	for k, qp := range qps {
		if qp.CompletedSends() != msgs {
			t.Errorf("sender %d: %d of %d sends completed", k, qp.CompletedSends(), msgs)
		}
	}
	down := hr.Downlink
	if q := down.Stats().MaxQueued; q < size/1024 {
		t.Errorf("receiver downlink peaked at %d queued MTUs, want a backlog of at least %d", q, size/1024)
	}
	if c := down.QueueCap(); c > 64 {
		t.Errorf("receiver downlink queues grew to %d entries, want at most 64: it did not queue runs", c)
	}
}
