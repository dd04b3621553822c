package cluster

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
)

// testbedStreamHash is the FNV-64a digest of testbedStreamScenario. It
// pins that the verbs data path schedules the same events at the same
// instants with the same sequence numbers, and completes the same work
// requests in the same order. The digest was computed both on the adapter
// that still carried RDMA WRITE and READ and on the SEND/RECV-only one.
const testbedStreamHash uint64 = 0x5d5ea2cf35535eec

// testbedStreamScenario runs one traffic mix on a 2-host testbed per link
// discipline and hashes every executed event's (at, seq) key, every
// completion in each CQ's order, and the links' counters. The mix covers
// 2 MB sends beside 64 KB and odd-sized ones (zero bytes, below one MTU,
// one byte over a whole number of MTUs), a rate-limited QP that paces
// itself out, a response that streams on the other uplink, a QP destroyed
// while its MTUs are still queued, and a flap of the busy uplink. Every
// SEND finds a receive buffer already posted.
func testbedStreamScenario(t *testing.T) uint64 {
	h := fnv.New64a()
	for _, disc := range []fabric.Discipline{fabric.RoundRobin, fabric.FIFO} {
		testbedStream(t, h, disc)
	}
	return h.Sum64()
}

func testbedStream(t *testing.T, h hash.Hash64, disc fabric.Discipline) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	tb := New(Config{Hosts: 2, Discipline: disc})
	tb.Eng.SetStepHook(func(at sim.Time, seq uint64) {
		put(uint64(at))
		put(seq)
	})
	a, b := tb.Hosts[0], tb.Hosts[1]
	va, vb := a.NewVM("src"), b.NewVM("dst")
	const region = 4 << 20
	srcAddr := va.PD.Space().Alloc(region, 64)
	dstAddr := vb.PD.Space().Alloc(region, 64)
	mra, err := va.PD.RegisterMR(srcAddr, region, hca.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	mrb, err := vb.PD.RegisterMR(dstAddr, region, hca.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}

	var cqs []*hca.CQ
	// recv posts n receive buffers of the whole region on qp.
	recv := func(qp *hca.QP, addr guestmem.Addr, mr *hca.MR, n int) {
		for i := 0; i < n; i++ {
			if err := qp.PostRecv(hca.RecvWR{ID: uint64(i), Addr: addr, LKey: mr.Key(), Len: region}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pair := func() (*hca.QP, *hca.QP) {
		sa, ra := va.PD.CreateCQ(512), va.PD.CreateCQ(512)
		sb, rb := vb.PD.CreateCQ(512), vb.PD.CreateCQ(512)
		cqs = append(cqs, sa, ra, sb, rb)
		qa := va.PD.CreateQP(sa, ra, 64, 64)
		qb := vb.PD.CreateQP(sb, rb, 64, 64)
		if err := ConnectQPs(qa, qb, a, b); err != nil {
			t.Fatal(err)
		}
		return qa, qb
	}
	writer, writeTarget := pair()
	sender, sendTarget := pair()
	paced, pacedTarget := pair()
	requester, responder := pair()
	doomed, doomedTarget := pair()
	paced.SetRateLimit(150e6)
	recv(writeTarget, dstAddr, mrb, 4)
	recv(pacedTarget, dstAddr, mrb, 9)
	recv(requester, srcAddr, mra, 1)
	recv(doomedTarget, dstAddr, mrb, 3)

	post := func(at sim.Time, qp *hca.QP, wr hca.SendWR) {
		tb.Eng.Schedule(at, func() {
			if err := qp.PostSend(wr); err != nil {
				t.Errorf("post %d on QP %#x at %v: %v", wr.ID, qp.QPN(), at, err)
			}
		})
	}
	write := func(id uint64, n int) hca.SendWR {
		return hca.SendWR{ID: id, LocalAddr: srcAddr, LKey: mra.Key(), Len: n}
	}
	for i := 0; i < 4; i++ {
		post(sim.Time(i)*sim.Millisecond, writer, write(uint64(100+i), 2<<20))
	}
	sizes := []int{64 << 10, 0, 100, 64 << 10, 3*fabric.DefaultMTU + 1}
	for i := 0; i < 40; i++ {
		if err := sendTarget.PostRecv(hca.RecvWR{ID: uint64(i), Addr: dstAddr, LKey: mrb.Key(), Len: 64 << 10}); err != nil {
			t.Fatal(err)
		}
		post(sim.Time(i)*150*sim.Microsecond, sender, write(uint64(200+i), sizes[i%len(sizes)]))
	}
	for i := 0; i < 6; i++ {
		post(sim.Time(i)*700*sim.Microsecond, paced, write(uint64(300+i), 96<<10))
	}
	// The paced flow alone on the wire, posting into a paced-out link.
	for i := 0; i < 3; i++ {
		post(18*sim.Millisecond+sim.Time(i)*sim.Microsecond, paced, write(uint64(310+i), 8<<10))
	}
	post(1500*sim.Microsecond, responder, hca.SendWR{ID: 400, LocalAddr: dstAddr, LKey: mrb.Key(), Len: 256<<10 + 7})
	post(2*sim.Millisecond, doomed, write(500, 2<<20))
	post(2*sim.Millisecond, doomed, write(501, 64<<10))
	post(2300*sim.Microsecond, doomed, write(502, 4<<10)) // flushed
	tb.Eng.Schedule(2300*sim.Microsecond, func() {
		if a.Uplink.Queued() < 1024 {
			t.Errorf("uplink holds %d MTUs when the doomed QP is destroyed, want its 2 MB send still queued", a.Uplink.Queued())
		}
		va.PD.DestroyQP(doomed)
	})
	tb.Eng.Schedule(3*sim.Millisecond, func() { a.Uplink.SetDown(true) })
	tb.Eng.Schedule(3400*sim.Microsecond, func() { a.Uplink.SetDown(false) })
	tb.Eng.RunUntil(25 * sim.Millisecond)

	completions := 0
	for _, cq := range cqs {
		for {
			e, ok := cq.Poll()
			if !ok {
				break
			}
			completions++
			put(uint64(e.At))
			put(e.WRID)
			put(uint64(e.Status)<<32 | uint64(e.Opcode)<<16)
			put(uint64(e.ByteLen))
		}
	}
	for _, l := range []*fabric.Link{a.Uplink, b.Uplink, a.Downlink, b.Downlink} {
		s := l.Stats()
		put(uint64(s.Packets))
		put(uint64(s.Bytes))
		put(uint64(s.BusyTime))
		put(uint64(s.MaxQueued))
		if l.Queued() != 0 {
			t.Errorf("%v: %s still holds %d MTUs after the run", disc, l.Name(), l.Queued())
		}
	}
	for _, qp := range []*hca.QP{writer, sender, paced, doomed} {
		put(uint64(a.Uplink.FlowBytes(qp.QPN())))
	}
	put(uint64(b.Uplink.FlowBytes(responder.QPN())))
	put(tb.Eng.Steps())
	// A send and a receive completion each for the 4 large sends, the 40
	// odd-sized ones, the 9 paced ones and the response; the doomed QP's
	// one flush, and a receive for each of its two sends already on the
	// wire, whose sender completions land nowhere, the QP being gone.
	if want := 2*(4+40+9+1) + 1 + 2; completions != want {
		t.Errorf("%v: %d completions, want %d", disc, completions, want)
	}
	tb.Eng.Shutdown()
}

func TestTestbedEventStreamPinned(t *testing.T) {
	if got := testbedStreamScenario(t); got != testbedStreamHash {
		t.Errorf("testbed event stream digest = %#x, want %#x: the verbs data path no longer schedules the same events in the same order", got, testbedStreamHash)
	}
}
