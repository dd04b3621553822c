package fabric

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"testing"

	"resex/internal/sim"
)

// ffPool is the downlinks' packet pool and receiver: a LIFO free list, as
// an HCA's is, that also records the MTUs a segment delivers without
// packets into the sink of the link they arrived on. A segment reports the
// arrivals of the trains it rotates one train at a time, so each is placed
// in the sink by its arrival time: one wire's arrivals never share an
// instant.
type ffPool struct {
	listPool
	sink *[]arrival
}

func (p *ffPool) ReceiveRun(tr *Train, first, n int, at, every sim.Time) {
	for i := 0; i < n; i++ {
		pkt := tr.Template
		pkt.Index, pkt.Bytes = first+i, tr.MTU
		a := arrival{at + sim.Time(i)*every, exported(pkt)}
		s := *p.sink
		j := len(s)
		for j > 0 && s[j-1].at > a.at {
			j--
		}
		*p.sink = slices.Insert(s, j, a)
	}
}

// ffObservation is what one breakpoint of a fabric replay saw.
type ffObservation struct {
	State     sim.EngineState
	Pending   int
	Stats     [4]LinkStats
	FlowBytes [4][ffFlows]int64
	Queued    [4]int
	Delivered [3]int
	Hooked    uint64 // FNV-64a of the keys the step hook saw so far
}

// ffFlows is how many flows a script may queue on one link: enough for a
// segment to rotate k of them while another joins.
const ffFlows = 6

// ffRun is everything one fabric replay observed.
type ffRun struct {
	obs       []ffObservation
	delivered [3][]arrival // downlink 1, downlink 2, default route
	credited  uint64
}

// replayFabric drives two uplinks into a switch with two downlinks and a
// default route from the script in data, and records a full observation
// at every breakpoint the script arms. With reference set every link takes
// the per-MTU path; otherwise trains fast-forward in segments. hookEvery
// installs a sampled step hook of that stride (0: none).
//
// The script's first two bytes pick each link's discipline, the
// propagation delay, the switch latency and the second downlink's rate.
// Then each 4-byte op, applied at a virtual-time cursor its high bits
// advance, queues a train (one MTU short, many full, with an odd tail, or
// long: from the paper's 64-MTU victim to its 2048-MTU interferer) on one
// of ffFlows flows of an uplink for a downlink or the default route, sends
// a single packet onto an uplink or straight onto a downlink (a source the switch
// does not see), paces a flow, flaps or degrades a link, or arms a
// breakpoint. The replay runs to a RunUntil limit the script sets, then to
// the end.
func replayFabric(data []byte, reference bool, hookEvery uint64) ffRun {
	var run ffRun
	eng := sim.New()
	h := fnv.New64a()
	var buf [16]byte
	if hookEvery > 0 {
		eng.SetSampledStepHook(hookEvery, func(at sim.Time, seq uint64) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(at))
			binary.LittleEndian.PutUint64(buf[8:], seq)
			h.Write(buf[:])
		})
	}
	var flags, timing byte
	if len(data) >= 2 {
		flags, timing, data = data[0], data[1], data[2:]
	}
	disc := func(bit uint) Discipline {
		if flags>>bit&1 == 1 {
			return FIFO
		}
		return RoundRobin
	}
	prop := sim.Time(timing%4) * 100
	latency := []sim.Time{200, 1000, 1024, 1500, 0, 700, 300, 1023}[timing>>2%8]
	rate2 := []float64{gbps1, 2 * gbps1, gbps1 / 2, gbps1}[timing>>5%4]

	sw := NewSwitch(eng, latency)
	pools := [2]*ffPool{}
	var downs [2]*Link
	for i := range downs {
		pools[i] = &ffPool{sink: &run.delivered[i]}
		p := pools[i]
		rate := gbps1
		if i == 1 {
			rate = rate2
		}
		downs[i] = NewLink(eng, fmt.Sprintf("down%d", i+1), rate, prop, disc(uint(2+i)), func(pkt *Packet) {
			*p.sink = append(*p.sink, arrival{eng.Now(), exported(*pkt)})
			p.ReleasePacket(pkt)
		})
		downs[i].SetPool(p)
		sw.AttachNode(i+1, downs[i])
	}
	sw.SetDefaultRoute(func(pkt *Packet) {
		run.delivered[2] = append(run.delivered[2], arrival{eng.Now(), exported(*pkt)})
	})
	ups := [2]*Link{
		sw.Uplink(eng, "up1", gbps1, prop, disc(0)),
		sw.Uplink(eng, "up2", gbps1, prop+50, disc(1)),
	}
	links := [4]*Link{ups[0], ups[1], downs[0], downs[1]}
	if reference {
		for _, l := range links {
			l.perMTU = true
		}
	}
	newPacket := func() *Packet { return pools[0].get() }

	observe := func() {
		o := ffObservation{State: eng.Checkpoint(), Pending: eng.Pending(), Hooked: h.Sum64()}
		for i, l := range links {
			o.Stats[i], o.Queued[i] = l.Stats(), l.Queued()
			for f := range o.FlowBytes[i] {
				o.FlowBytes[i][f] = l.FlowBytes(uint32(f + 1))
			}
		}
		for i := range o.Delivered {
			o.Delivered[i] = len(run.delivered[i])
		}
		run.obs = append(run.obs, o)
	}

	var at, limit sim.Time
	var msg uint64
	for i := 0; i+4 <= len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		at += sim.Time(op>>3) * 300
		l := links[a%4]
		flow := uint32(1 + int(a>>2)%ffFlows)
		switch op % 8 {
		case 0, 1, 2: // a train
			var n int
			switch b % 4 {
			case 0:
				n = 1 + int(c)%(DefaultMTU-1)
			case 1:
				n = DefaultMTU * (1 + int(c)%48)
			case 2:
				n = DefaultMTU*(1+int(c)%48) + int(b)
			default:
				n = DefaultMTU * (64 + 8*int(c))
			}
			msg++
			mtus := (n + DefaultMTU - 1) / DefaultMTU
			tr := &Train{
				Template:  Packet{Flow: flow, DstNode: []int{1, 2, 9}[(b>>2)%3], DstFlow: uint32(c), Meta: msg},
				MTUs:      mtus,
				MTU:       DefaultMTU,
				LastBytes: n - (mtus-1)*DefaultMTU,
				New:       newPacket,
			}
			up := ups[a&1]
			eng.Schedule(at, func() { up.SendTrain(tr) })
		case 3: // a single packet, on an uplink or straight onto a downlink
			msg++
			p := &Packet{Flow: flow, DstNode: 1 + int(b&1), Bytes: 1 + int(c)*4, Meta: msg, Last: true}
			eng.Schedule(at, func() { l.Send(p) })
		case 4: // pace a flow, or lift its limit
			rate := float64(b%4) * 150e6
			eng.Schedule(at, func() { l.SetFlowRateLimit(flow, rate) })
		case 5: // flap: down now, up again after a while
			eng.Schedule(at, func() { l.SetDown(true) })
			eng.Schedule(at+sim.Time(b)*100, func() { l.SetDown(false) })
		case 6: // degrade, or heal
			factor := []float64{1, 0.5, 0.25, 0.75}[b%4]
			eng.Schedule(at, func() { l.SetDegrade(factor) })
		default: // observe; the first such op also sets the RunUntil limit
			eng.Breakpoint(at+sim.Time(b)*7, observe)
			if limit == 0 {
				limit = at + sim.Time(c)*50
			}
		}
	}
	if limit > 0 {
		eng.RunUntil(limit)
		observe()
	}
	eng.Run()
	observe()
	run.credited = eng.Credited()
	return run
}

// ffSeeds are FuzzFastForward's corpus. The first is the mix of
// TestTestbedEventStreamPinned (internal/cluster): 2 MB and 64 KB writes,
// a run of odd-sized sends, a paced flow, a late join of another flow and
// a flap of the busy uplink, with breakpoints through the run.
var ffSeeds = [][]byte{
	{0x00, 0x00,
		0x00, 0x00, 0x03, 0xff, // 2 MB-class train on up1 to down2
		0x08, 0x00, 0x01, 0x3f, // 64 KB on the same flow
		0x27, 0x00, 0x00, 0x10,
		0x10, 0x01, 0x02, 0x05, // odd-sized sends on up2
		0x10, 0x05, 0x02, 0x09,
		0x44, 0x04, 0x01, 0x00, // pace a flow of up1
		0x40, 0x04, 0x02, 0x20, // and send on it
		0x40, 0x08, 0x03, 0x30, // another flow joins up1
		0x27, 0x00, 0x30, 0x10,
		0x85, 0x00, 0x20, 0x00, // flap up1
		0x47, 0x00, 0x10, 0x10,
		0x16, 0x02, 0x01, 0x00, // degrade down1
		0x87, 0x00, 0x50, 0x10,
		0x43, 0x02, 0x00, 0x40, // a packet straight onto down1
		0xf7, 0x00, 0x00, 0x00,
	},
	// Both uplinks stream long trains to one downlink under FIFO.
	{0x0f, 0x05, 0x00, 0x00, 0x07, 0x40, 0x01, 0x01, 0x07, 0x30, 0x37, 0x00, 0x10, 0x08, 0x57, 0x00, 0x20, 0x02},
	// A switch slower than an MTU, a faster second downlink, sampled
	// breakpoints in a long run to the default route.
	{0x00, 0x2b, 0x00, 0x00, 0x0b, 0x60, 0x0f, 0x00, 0x00, 0x50, 0x27, 0x00, 0x44, 0x01, 0x47, 0x00, 0x70, 0x20},
	// Both uplinks stream into the first downlink, staggered.
	{0x00, 0x00, 0x00, 0x00, 0x03, 0x40, 0x08, 0x01, 0x03, 0x40, 0xff, 0x00, 0x10, 0x00, 0xff, 0x00, 0x20, 0x00},
	// A segment that holds the first downlink while the switch also holds
	// real packets for the slower second one, until another flow joins.
	{0x00, 0x44, 0x00, 0x00, 0x03, 0x40, 0x08, 0x01, 0x07, 0x40, 0xf8, 0x04, 0x01, 0x05, 0xff, 0x00, 0x10, 0x00, 0xff, 0x00, 0x20, 0x00},
	// A packet sent straight onto the first downlink is still on its wire
	// when the first MTU of a train for it reaches the switch.
	{0x00, 0x00, 0x00, 0x00, 0x03, 0x40, 0x1b, 0x02, 0x00, 0xfa, 0xff, 0x00, 0x10, 0x00},
	// The downlink a segment holds degrades midway.
	{0x00, 0x00, 0x00, 0x00, 0x03, 0x40, 0xfe, 0x02, 0x01, 0x00, 0xff, 0x00, 0x10, 0x00},
	// Another flow joins a RoundRobin uplink in the middle of a segment.
	{0x00, 0x00, 0x00, 0x00, 0x03, 0x80, 0xf8, 0x04, 0x01, 0x05, 0xff, 0x00, 0x10, 0x00, 0xff, 0x00, 0x20, 0x00},
	// The paper's shape: a 64-MTU train joins a 2048-MTU train on one
	// uplink toward one downlink, and the two take turns until the small
	// one's last MTU.
	{0x00, 0x01,
		0x00, 0x00, 0x03, 0xf8, // 2048 MTUs on flow 1 of up1 to down1
		0xf8, 0x04, 0x03, 0x00, // 64 MTUs on flow 2, 9.3 µs later
		0xff, 0x00, 0x10, 0x40,
		0xff, 0x00, 0x20, 0x00,
		0xff, 0x00, 0x33, 0x00,
		0xff, 0x00, 0x44, 0x00,
		0xff, 0x00, 0x55, 0x00,
		0xff, 0x00, 0x66, 0x00,
		0xff, 0x00, 0x77, 0x00,
		0xff, 0x00, 0x88, 0x00,
		0xff, 0x00, 0x99, 0x00,
		0xff, 0x00, 0xaa, 0x00,
		0xff, 0x00, 0xbb, 0x00,
		0xff, 0x00, 0xcc, 0x00,
		0xff, 0x00, 0xdd, 0x00,
		0xff, 0x00, 0xee, 0x00,
	},
	// Three flows to one downlink whose trains end at different times, the
	// last with an odd tail.
	{0x00, 0x01,
		0x00, 0x00, 0x03, 0x10, // 192 MTUs on flow 1
		0x08, 0x04, 0x01, 0x27, // 40 MTUs on flow 2
		0x08, 0x08, 0x02, 0x13, // 20 MTUs and 2 bytes on flow 3
		0x7f, 0x00, 0x40, 0x20,
		0xff, 0x00, 0x10, 0x00,
		0xff, 0x00, 0x80, 0x00,
		0xff, 0x00, 0x08, 0x00,
	},
	// Four flows queued at once, with four different train ends.
	{0x00, 0x00,
		0x00, 0x00, 0x03, 0x08, // 128 MTUs on flow 1
		0x00, 0x04, 0x01, 0x2f, // 48 on flow 2
		0x00, 0x08, 0x03, 0x00, // 64 on flow 3
		0x00, 0x0c, 0x02, 0x1f, // 32 and 2 bytes on flow 4
		0x7f, 0x00, 0x40, 0x20,
		0xff, 0x00, 0x10, 0x00,
		0xff, 0x00, 0x80, 0x00,
		0xff, 0x00, 0xf0, 0x00,
	},
	// A third flow joins two that take turns.
	{0x00, 0x00,
		0x00, 0x00, 0x03, 0x20, // 320 MTUs on flow 1
		0x08, 0x04, 0x03, 0x10, // 192 on flow 2
		0xf8, 0x08, 0x01, 0x1f, // 32 on flow 3, mid-rotation
		0xff, 0x00, 0x10, 0x00,
		0xff, 0x00, 0x80, 0x00,
		0xff, 0x00, 0xf0, 0x00,
	},
	// One of two flows taking turns is paced mid-segment, then released.
	{0x00, 0x01,
		0x00, 0x00, 0x03, 0x20, // 320 MTUs on flow 1
		0x08, 0x04, 0x03, 0x10, // 192 on flow 2
		0xf4, 0x04, 0x01, 0x00, // pace flow 2 of up1
		0xff, 0x00, 0x10, 0x00,
		0xfc, 0x04, 0x00, 0x00, // lift the limit
		0xff, 0x00, 0x80, 0x00,
	},
	// Two flows of one uplink split across the two downlinks: they take
	// the per-MTU path.
	{0x00, 0x00,
		0x00, 0x00, 0x03, 0x20, // 320 MTUs on flow 1 to down1
		0x08, 0x04, 0x07, 0x20, // 320 on flow 2 to down2
		0x7f, 0x00, 0x40, 0x20,
		0xff, 0x00, 0x80, 0x00,
	},
	ffAlone,
	ffPair,
}

// ffAlone is one long train alone, which the segment carries onto the
// downlink, observed every few microseconds.
var ffAlone = []byte{0x00, 0x00, 0x00, 0x00, 0x03, 0x80, 0xff, 0x00, 0x80, 0x10, 0xff, 0x00, 0x11, 0x00, 0xff, 0x00, 0x22, 0x00,
	0xff, 0x00, 0x33, 0x00, 0xff, 0x00, 0x44, 0x00, 0xff, 0x00, 0x55, 0x00}

// ffPair is two long trains that take turns on one uplink toward one
// downlink, observed every few microseconds.
var ffPair = []byte{0x00, 0x00,
	0x00, 0x00, 0x03, 0x80, // 1088 MTUs on flow 1 of up1 to down1
	0x08, 0x04, 0x03, 0x80, // 1088 on flow 2, 300 ns later
	0xff, 0x00, 0x80, 0x10, 0xff, 0x00, 0x11, 0x00, 0xff, 0x00, 0x22, 0x00,
	0xff, 0x00, 0x33, 0x00, 0xff, 0x00, 0x44, 0x00, 0xff, 0x00, 0x55, 0x00}

// TestFastForwardCreditsMost: one train alone, and two trains taking
// turns, carried onto their downlink, have most of their events credited,
// so the differential fuzz target exercises the fast path it checks.
func TestFastForwardCreditsMost(t *testing.T) {
	for name, s := range map[string][]byte{"alone": ffAlone, "pair": ffPair} {
		run := replayFabric(s, false, 0)
		if steps := run.obs[len(run.obs)-1].State.Steps; run.credited*10 < steps*9 {
			t.Errorf("%s: %d of %d events credited, want nine in ten", name, run.credited, steps)
		}
	}
}

// FuzzFastForward checks that trains served in segments are
// indistinguishable from the per-MTU reference path: at every breakpoint,
// the RunUntil limit and the end, the same engine state (clock, Steps,
// Seq, every pending key, pool occupancy), the same link counters and the
// same sampled step-hook stream at strides 1, 2 and 4, and the same
// deliveries in the same order at the same times. Without a hook, segments
// also fast-forward whole periods.
func FuzzFastForward(f *testing.F) {
	for _, s := range ffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*48 {
			data = data[:2+4*48]
		}
		for _, every := range []uint64{0, 1, 2, 4} {
			got, want := replayFabric(data, false, every), replayFabric(data, true, every)
			if want.credited != 0 {
				t.Fatalf("reference path credited %d events", want.credited)
			}
			if len(got.obs) != len(want.obs) {
				t.Fatalf("stride %d: %d observations, reference %d", every, len(got.obs), len(want.obs))
			}
			for i := range got.obs {
				if !reflect.DeepEqual(got.obs[i], want.obs[i]) {
					t.Fatalf("stride %d: observation %d differs:\nsegments  %+v\nreference %+v", every, i, got.obs[i], want.obs[i])
				}
			}
			for k := range got.delivered {
				if !reflect.DeepEqual(got.delivered[k], want.delivered[k]) {
					t.Fatalf("stride %d: sink %d deliveries differ:\nsegments  %v\nreference %v", every, k, got.delivered[k], want.delivered[k])
				}
			}
		}
	})
}
