package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"unsafe"

	"resex/internal/sim"
)

// listPool is a LIFO free list of packets, the shape of an HCA's: a packet
// released to it is the next one handed out, so a packet released while a
// queue still needs it shows up as a corrupted delivery.
type listPool struct {
	free     []*Packet
	released int
}

func (p *listPool) get() *Packet {
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free = p.free[:n-1]
		return pkt
	}
	return new(Packet)
}

func (p *listPool) RunPacket(*Train) *Packet { return p.get() }

// ReceiveRun is never called: the downlinks here are fed by NewLink uplinks,
// which start no segments.
func (p *listPool) ReceiveRun(*Train, int, int, sim.Time, sim.Time) {
	panic("listPool: a segment reached a downlink its uplinks cannot claim")
}

func (p *listPool) ReleasePacket(pkt *Packet) {
	*pkt = Packet{}
	p.free = append(p.free, pkt)
	p.released++
}

// downlinkRun is what one replay of a downlink script observed.
type downlinkRun struct {
	stream    uint64 // FNV-64a of every executed event's (at, seq)
	delivered [2][]arrival
	stats     [2]LinkStats
	flowBytes [2][4]int64
	queued    [2]int
	folded    int // packets a downlink folded into a run
}

// replayDownlinks drives two or three uplinks through a switch onto a
// RoundRobin downlink (node 0) and a FIFO downlink (node 1) and records
// what the downlinks deliver. With runs set the downlinks share the
// senders' packet pool and fold train-built packets into runs. Otherwise
// the switch hands each downlink a train-less copy of every packet, which
// queues as a packet of its own. The script is a sequence of 4-byte ops,
// each applied at a virtual-time cursor that its high bits advance: send a
// message from an uplink to a downlink, send a single hand-built packet,
// pace a downlink flow or lift its limit, flap a link, or degrade or heal a
// downlink. Flow ids come from one small range for every sender, so
// senders share flows on the RoundRobin downlink.
func replayDownlinks(data []byte, runs bool) downlinkRun {
	eng := sim.New()
	h := fnv.New64a()
	var buf [16]byte
	eng.SetStepHook(func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], seq)
		h.Write(buf[:])
	})
	var run downlinkRun
	pool := &listPool{}
	released := 0 // packets the pool got back from deliveries and the switch
	sw := NewSwitch(eng, 200)
	var downs [2]*Link
	for n, disc := range []Discipline{RoundRobin, FIFO} {
		n := n
		downs[n] = NewLink(eng, "down", gbps1, 100+sim.Time(len(data)%5)*200, disc, func(p *Packet) {
			c := *p
			c.tr = nil
			run.delivered[n] = append(run.delivered[n], arrival{eng.Now(), c})
			if p.tr != nil {
				pool.ReleasePacket(p)
				released++
			}
		})
		if runs {
			downs[n].SetPool(pool)
			sw.AttachNode(n, downs[n])
		}
	}
	if !runs {
		sw.SetDefaultRoute(func(p *Packet) {
			c := new(Packet)
			*c = *p
			c.tr = nil
			if p.tr != nil {
				pool.ReleasePacket(p)
				released++
			}
			downs[c.DstNode].Send(c)
		})
	}
	ups := make([]*Link, 2+len(data)%2)
	for i := range ups {
		disc := RoundRobin
		if len(data) > i && data[i]&1 == 1 {
			disc = FIFO
		}
		ups[i] = NewLink(eng, "up", gbps1, 100, disc, sw.Inject)
	}

	var at sim.Time
	var msg uint64
	down := [2]bool{}
	for i := 0; i+4 <= len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		up, src := ups[int(a)%len(ups)], int(a)%len(ups)
		flow := uint32(a>>2) % 4
		dst := int(c & 1)
		at += sim.Time(op>>3) * 40
		msg++
		switch op % 8 {
		case 0, 1, 2, 3: // a message
			var n int
			switch b % 4 {
			case 0:
				n = 0
			case 1:
				n = 1 + int(c)%(DefaultMTU-1)
			case 2:
				n = DefaultMTU * (1 + int(c)%32)
			default:
				n = DefaultMTU*(1+int(c)%48) + int(b)
			}
			mtus := max(1, (n+DefaultMTU-1)/DefaultMTU)
			last := n - (mtus-1)*DefaultMTU
			if last <= 0 {
				last = 64
			}
			tr := &Train{
				Template: Packet{Flow: flow, SrcNode: src, DstNode: dst, DstFlow: uint32(b), Meta: msg},
				MTUs:     mtus, MTU: DefaultMTU, LastBytes: last, New: pool.get,
			}
			eng.Schedule(at, func() { up.SendTrain(tr) })
		case 4: // a hand-built packet, queued on its own on both sides
			p := &Packet{Flow: flow, SrcNode: src, DstNode: dst, Bytes: 1 + int(b)*4, Meta: msg, Last: true}
			eng.Schedule(at, func() { up.Send(p) })
		case 5: // pace a downlink flow, or lift its limit
			l, rate := downs[dst], float64(b%4)*150e6
			eng.Schedule(at, func() { l.SetFlowRateLimit(flow, rate) })
		case 6: // flap a downlink, or an uplink
			if b&1 == 1 {
				eng.Schedule(at, func() { up.SetDown(true) })
				eng.Schedule(at+sim.Time(c)*20, func() { up.SetDown(false) })
				break
			}
			down[dst] = !down[dst]
			l, d := downs[dst], down[dst]
			eng.Schedule(at, func() { l.SetDown(d) })
		default: // degrade a downlink, or heal it
			l, factor := downs[dst], []float64{1, 0.5, 0.25, 0.75}[b%4]
			eng.Schedule(at, func() { l.SetDegrade(factor) })
		}
	}
	eng.Schedule(at+1, func() {
		for _, l := range downs {
			l.SetDown(false)
		}
	})
	eng.Run()

	run.stream = h.Sum64()
	for n, l := range downs {
		run.stats[n] = l.Stats()
		for f := range run.flowBytes[n] {
			run.flowBytes[n][f] = l.FlowBytes(uint32(f))
		}
		run.queued[n] = l.Queued()
	}
	run.folded = pool.released - released
	return run
}

// downlinkSeeds are scripts with the downlinks backlogged by several
// senders at once, which is when runs form.
var downlinkSeeds = [][]byte{
	// Three uplinks each send a long message to the RoundRobin downlink on
	// distinct flows, then on one shared flow.
	{0, 0, 2, 30, 0, 5, 2, 30, 0, 10, 2, 30, 0, 0, 3, 20, 0, 1, 3, 20, 0, 2, 3, 20, 0},
	// Two uplinks into the FIFO downlink, with a flap and a degrade.
	{2, 0, 2, 31, 0, 1, 2, 29, 8, 0, 0, 1, 14, 0, 0, 1, 23, 0, 1, 1, 31, 0, 0, 1},
	// A paced downlink flow, hand-built packets mixed in and an uplink flap.
	{0, 0, 3, 40, 5, 0, 1, 0, 0, 5, 2, 16, 4, 1, 9, 0, 14, 1, 1, 60, 0, 4, 2, 8, 8, 9, 2, 0},
	// Both downlinks at once, from three uplinks, with a degrade on each.
	{1, 0, 2, 30, 0, 1, 2, 31, 0, 2, 3, 30, 7, 0, 1, 0, 7, 0, 2, 1, 0, 4, 2, 3, 63, 0, 0, 0, 0},
}

// FuzzDownlinkRuns checks that a downlink folding train-built packets into
// runs is indistinguishable from one that queues each packet on its own:
// the same events at the same instants with the same sequence numbers, the
// same packets delivered in the same order at the same times with the same
// fields, and the same link counters.
func FuzzDownlinkRuns(f *testing.F) {
	for _, seed := range downlinkSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		got, want := replayDownlinks(data, true), replayDownlinks(data, false)
		if got.stream != want.stream {
			t.Errorf("event stream digest %#x with runs, %#x without", got.stream, want.stream)
		}
		for n := range got.delivered {
			g, w := got.delivered[n], want.delivered[n]
			if len(g) != len(w) {
				t.Fatalf("downlink %d delivered %d packets with runs, %d without", n, len(g), len(w))
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("downlink %d delivery %d: %+v with runs, %+v without", n, i, g[i], w[i])
				}
			}
		}
		if got.stats != want.stats || got.flowBytes != want.flowBytes || got.queued != want.queued {
			t.Errorf("counters with runs %+v %v queued %v, without %+v %v queued %v",
				got.stats, got.flowBytes, got.queued, want.stats, want.flowBytes, want.queued)
		}
		if got.queued != [2]int{} {
			t.Errorf("%v packets left queued", got.queued)
		}
	})
}

func TestDownlinkSeedsFoldRuns(t *testing.T) {
	// The fuzz seeds exercise what they are meant to: runs form.
	for i, seed := range downlinkSeeds {
		if got := replayDownlinks(seed, true); got.folded == 0 {
			t.Errorf("seed %d: no packet was folded into a run", i)
		}
	}
}

func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 80 {
		t.Errorf("Packet is %d bytes, want the 80 its fields are ordered for", got)
	}
}
