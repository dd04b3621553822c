package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"resex/internal/ring"
	"resex/internal/sim"
)

// eventStreamHash is the FNV-64a digest of the (at, seq) stream and the
// delivery order of eventStreamScenario. It was computed on the closure-based
// fabric that predates the pre-bound callbacks, so it pins that the hot path
// schedules exactly the same events at the same instants in the same order.
const eventStreamHash uint64 = 0xbce4c24f57f1a388

// eventStreamScenario drives every scheduling path of the fabric: RoundRobin
// and FIFO links, a paced flow that needs wake-ups, nonzero propagation and
// switch latency, a link flap while packets are in propagation, a bandwidth
// degradation and a default route. It returns the digest of every executed
// event's (at, seq) key interleaved with each delivery, and fails t if the
// run did not reach every path it is meant to cover.
func eventStreamScenario(t *testing.T) uint64 {
	eng := sim.New()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	eng.SetStepHook(func(at sim.Time, seq uint64) {
		put(uint64(at))
		put(seq)
	})
	delivered := map[uint64]int{}
	record := func(tag uint64) func(*Packet) {
		return func(p *Packet) {
			delivered[tag]++
			put(tag)
			put(uint64(eng.Now()))
			put(p.Meta.(uint64))
			put(uint64(p.Flow))
			put(uint64(p.Sent))
		}
	}

	sw := NewSwitch(eng, 200)
	down1 := NewLink(eng, "down1", gbps1, 100, RoundRobin, record(1))
	down2 := NewLink(eng, "down2", gbps1/2, 300, FIFO, record(2))
	sw.AttachNode(1, down1)
	sw.AttachNode(2, down2)
	sw.SetDefaultRoute(record(9)) // node 9 is unattached
	// Propagation longer than any packet's serialization keeps packets in
	// flight whenever upRR is busy, so the flap below catches some.
	upRR := NewLink(eng, "upRR", gbps1, 1500, RoundRobin, sw.Inject)
	upFIFO := NewLink(eng, "upFIFO", gbps1, 50, FIFO, sw.Inject)
	upRR.SetFlowRateLimit(3, 200e6)

	r := sim.NewRand(13)
	dsts := []int{1, 2, 9}
	var msg uint64
	for i := 0; i < 600; i++ {
		msg++
		p := &Packet{
			Flow:    uint32(1 + r.Intn(4)),
			DstNode: dsts[r.Intn(len(dsts))],
			Bytes:   64 + r.Intn(DefaultMTU-63),
			Meta:    msg,
		}
		up := upRR
		if r.Intn(3) == 0 {
			up = upFIFO
		}
		eng.Schedule(sim.Time(r.Intn(200_000)), func() { up.Send(p) })
	}
	// A solo paced tail: only flow 3 is queued, so the link must wake
	// itself at each pacing release.
	for i := 0; i < 20; i++ {
		msg++
		p := &Packet{Flow: 3, DstNode: 1, Bytes: DefaultMTU, Meta: msg}
		eng.Schedule(400_000, func() { upRR.Send(p) })
	}
	var inflightAtFlap int
	eng.Schedule(30_000, func() {
		inflightAtFlap = upRR.inflight.Len()
		upRR.SetDown(true)
	})
	eng.Schedule(30_500, func() { upFIFO.SetDown(true) })
	eng.Schedule(60_000, func() { upRR.SetDown(false) })
	eng.Schedule(61_000, func() { upFIFO.SetDown(false) })
	eng.Schedule(40_000, func() { down1.SetDegrade(0.5) })
	eng.Schedule(90_000, func() { down1.SetDegrade(1) })
	eng.Schedule(120_000, func() { down2.SetDegrade(0.25) })
	eng.Run()

	for _, l := range []*Link{upRR, upFIFO, down1, down2} {
		s := l.Stats()
		put(uint64(s.Packets))
		put(uint64(s.Bytes))
		put(uint64(s.BusyTime))
		put(uint64(s.MaxQueued))
		for f := uint32(1); f <= 4; f++ {
			put(uint64(l.FlowBytes(f)))
		}
	}
	put(eng.Steps())

	if inflightAtFlap == 0 {
		t.Error("scenario flapped upRR with no packet in propagation")
	}
	if delivered[1]+delivered[2]+delivered[9] != 620 || delivered[9] == 0 {
		t.Errorf("deliveries by egress = %v, want 620 in total including the default route", delivered)
	}
	return h.Sum64()
}

func TestEventStreamPinned(t *testing.T) {
	if got := eventStreamScenario(t); got != eventStreamHash {
		t.Errorf("event stream digest = %#x, want %#x: the fabric no longer schedules the same events in the same order", got, eventStreamHash)
	}
}

func TestPacketSentStampAtTimeZero(t *testing.T) {
	// Sent == 0 is a valid stamp: the downlink must not re-stamp a packet
	// the uplink accepted at virtual time 0.
	eng := sim.New()
	var got *Packet
	sw := NewSwitch(eng, 200)
	sw.AttachNode(2, NewLink(eng, "down", gbps1, 100, RoundRobin, func(p *Packet) { got = p }))
	up := NewLink(eng, "up", gbps1, 100, RoundRobin, sw.Inject)
	up.Send(&Packet{Flow: 1, DstNode: 2, Bytes: 1024})
	eng.Run()
	if got == nil {
		t.Fatal("packet lost")
	}
	if got.Sent != 0 {
		t.Errorf("Sent = %v after uplink → switch → downlink from t=0, want 0", got.Sent)
	}
}

func TestHotPathAllocatesNothing(t *testing.T) {
	// Steady state through Link.Send, serialization, propagation, the
	// switch and the downlink, with a paced flow arming wake-ups. Trains
	// from a second uplink meet the packets on the downlink, which queues
	// each message as a run that later MTUs extend and rebuilds the MTUs
	// from its pool as they reach the wire.
	for _, disc := range []Discipline{RoundRobin, FIFO} {
		eng := sim.New()
		pool := &listPool{}
		delivered, fromTrains := 0, 0
		sw := NewSwitch(eng, 200)
		down := NewLink(eng, "down", gbps1, 100, disc, func(p *Packet) {
			delivered++
			if p.tr != nil {
				fromTrains++
				pool.ReleasePacket(p)
			}
		})
		down.SetPool(pool)
		sw.AttachNode(2, down)
		up := NewLink(eng, "up", gbps1, 100, disc, sw.Inject)
		up2 := NewLink(eng, "up2", gbps1, 100, disc, sw.Inject)
		up.SetFlowRateLimit(3, 500e6)
		pkts := make([]Packet, 256)
		trains := make([]Train, 4)
		get := pool.get
		round := func() {
			for i := range pkts {
				pkts[i] = Packet{Flow: uint32(1 + i%3), DstNode: 2, Bytes: DefaultMTU}
				up.Send(&pkts[i])
			}
			for i := range trains {
				trains[i] = Train{
					Template: Packet{Flow: uint32(4 + i%2), DstNode: 2},
					MTUs:     64, MTU: DefaultMTU, LastBytes: 100, New: get,
				}
				up2.SendTrain(&trains[i])
			}
			eng.Run()
		}
		round() // the pool's and the queues' warm-up
		folded := pool.released - fromTrains
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%v: %.1f allocs per round of %d packets and %d trains, want 0", disc, allocs, len(pkts), len(trains))
		}
		if folded == 0 {
			t.Errorf("%v: the downlink folded no packet into a run", disc)
		}
		if want := 22 * (len(pkts) + 64*len(trains)); delivered != want {
			t.Errorf("%v: delivered %d, want %d", disc, delivered, want)
		}
	}
}

func TestBackloggedFlowReusesQueueStorage(t *testing.T) {
	// A flow kept backlogged for 10⁵ packets reuses one backing array sized
	// to its peak depth instead of regrowing as the head advances.
	const depth, total = 100, 100_000
	for _, disc := range []Discipline{RoundRobin, FIFO} {
		eng := sim.New()
		var l *Link
		backing := func() *ring.Queue[entry] {
			if disc == FIFO {
				return &l.fifo
			}
			return &l.flows[1].trains
		}
		sent, peak := 0, 0
		l = NewLink(eng, "l", gbps1, 100, disc, func(p *Packet) {
			if n := backing().Len(); n > peak {
				peak = n
			}
			if sent < total {
				sent++
				l.Send(p) // requeue at the tail: the backlog never drains
			}
		})
		pkts := make([]Packet, depth)
		backlog := func() {
			sent = 0
			for i := range pkts {
				pkts[i] = Packet{Flow: 1, Bytes: DefaultMTU}
				sent++
				l.Send(&pkts[i])
			}
			eng.Run()
		}
		allocs := testing.AllocsPerRun(1, backlog)
		if allocs != 0 {
			t.Errorf("%v: %.0f allocs over a %d-packet backlog, want 0", disc, allocs, total)
		}
		if c := backing().Cap(); peak < depth-2 || c > 2*peak {
			t.Errorf("%v: backing capacity %d for peak depth %d, want at most twice the peak", disc, c, peak)
		}
		if l.Stats().Packets != 2*total {
			t.Errorf("%v: carried %d packets, want %d", disc, l.Stats().Packets, 2*total)
		}
	}
}
