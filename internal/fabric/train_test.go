package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"resex/internal/sim"
)

// uplinkRun is what one replay of an uplink script observed.
type uplinkRun struct {
	stream    uint64 // FNV-64a of every executed event's (at, seq)
	delivered []arrival
	stats     LinkStats
	flowBytes [5]int64
	queued    int
}

// arrival is one delivered packet and when it arrived.
type arrival struct {
	at  sim.Time
	pkt Packet
}

// exported returns p with its unexported fields cleared: a packet built
// from a train records the train, one built by hand does not.
func exported(p Packet) Packet {
	p.tr, p.stamped = nil, false
	return p
}

// replayUplink drives one link with the script in data and records what it
// delivers. With trains set, each message is queued with one SendTrain;
// otherwise with one Send per MTU, its packets built up front as a producer
// did before trains existed. The script is a sequence of 4-byte ops, each
// applied at a virtual-time cursor that its high bits advance: send a
// message (0 bytes, below one MTU, or many MTUs), send a single packet, set
// or clear a flow's rate limit, flap the link, or degrade or heal it.
func replayUplink(data []byte, trains bool) uplinkRun {
	eng := sim.New()
	h := fnv.New64a()
	var buf [16]byte
	eng.SetStepHook(func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], seq)
		h.Write(buf[:])
	})
	var run uplinkRun
	disc := RoundRobin
	if len(data) > 0 && data[0]&1 == 1 {
		disc = FIFO
	}
	l := NewLink(eng, "up", gbps1, sim.Time(len(data)%7)*150, disc, func(p *Packet) {
		run.delivered = append(run.delivered, arrival{eng.Now(), exported(*p)})
	})
	newPacket := func() *Packet { return new(Packet) }

	var at sim.Time
	var msg uint64
	down := false
	for i := 0; i+4 <= len(data); i += 4 {
		op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
		flow := uint32(1 + a%4)
		at += sim.Time(op>>3) * 40
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
			msg++
			m := msg
			mtus := max(1, (n+DefaultMTU-1)/DefaultMTU)
			last := n - (mtus-1)*DefaultMTU
			if last <= 0 {
				last = 64
			}
			tmpl := Packet{Flow: flow, DstNode: int(c % 3), DstFlow: uint32(b), Meta: m}
			if trains {
				tr := &Train{Template: tmpl, MTUs: mtus, MTU: DefaultMTU, LastBytes: last, New: newPacket}
				eng.Schedule(at, func() { l.SendTrain(tr) })
				break
			}
			eng.Schedule(at, func() {
				for k := 0; k < mtus; k++ {
					p := newPacket()
					*p = tmpl
					p.Index, p.Last, p.Bytes = k, k == mtus-1, DefaultMTU
					if p.Last {
						p.Bytes = last
					}
					l.Send(p)
				}
			})
		case 4: // a single packet, a train of one on both sides
			msg++
			p := &Packet{Flow: flow, Bytes: 1 + int(c)*4, Meta: msg, Last: true}
			eng.Schedule(at, func() { l.Send(p) })
		case 5: // pace a flow, or lift its limit
			rate := float64(b%4) * 150e6
			eng.Schedule(at, func() { l.SetFlowRateLimit(flow, rate) })
		case 6: // flap
			down = !down
			d := down
			eng.Schedule(at, func() { l.SetDown(d) })
		default: // degrade, or heal
			factor := []float64{1, 0.5, 0.25, 0.75}[b%4]
			eng.Schedule(at, func() { l.SetDegrade(factor) })
		}
	}
	eng.Schedule(at+1, func() { l.SetDown(false) })
	eng.Run()

	run.stream = h.Sum64()
	run.stats = l.Stats()
	for f := range run.flowBytes {
		run.flowBytes[f] = l.FlowBytes(uint32(f))
	}
	run.queued = l.Queued()
	return run
}

// FuzzUplinkTrain checks that queuing a message as one Train is
// indistinguishable from queuing its MTUs one Send at a time: the same
// events at the same instants with the same sequence numbers, the same
// packets delivered in the same order with the same fields, and the same
// link counters.
func FuzzUplinkTrain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 5, 8, 2, 2, 40, 16, 1, 3, 7})
	f.Add([]byte{1, 0, 3, 9, 0, 1, 2, 3, 0, 2, 1, 200, 4, 3, 0, 0})
	// A paced flow alone on an idle link, then joined by others.
	f.Add([]byte{5, 0, 1, 0, 0, 0, 2, 20, 8, 0, 2, 3, 0, 1, 3, 30, 64, 2, 2, 4})
	// A message posted to an idle RoundRobin link while its only flow is
	// paced out: the wake-up is re-armed once per MTU.
	f.Add([]byte{4, 1, 0, 0, 5, 0, 1, 0, 0, 0, 2, 3, 255, 0, 0, 0, 255, 0, 0, 0, 0, 0, 2, 3})
	// A flap and a degrade in the middle of two long messages.
	f.Add([]byte{0, 0, 2, 31, 0, 1, 3, 47, 14, 0, 0, 0, 7, 0, 1, 0, 30, 0, 0, 0, 15, 0, 3, 0, 8, 3, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		got, want := replayUplink(data, true), replayUplink(data, false)
		if got.stream != want.stream {
			t.Errorf("event stream digest %#x with trains, %#x with one Send per MTU", got.stream, want.stream)
		}
		if len(got.delivered) != len(want.delivered) {
			t.Fatalf("delivered %d packets with trains, %d with one Send per MTU", len(got.delivered), len(want.delivered))
		}
		for i := range got.delivered {
			if got.delivered[i] != want.delivered[i] {
				t.Fatalf("delivery %d: %+v with trains, %+v with one Send per MTU", i, got.delivered[i], want.delivered[i])
			}
		}
		if got.stats != want.stats || got.flowBytes != want.flowBytes || got.queued != want.queued {
			t.Errorf("counters with trains %+v %v queued %d, with one Send per MTU %+v %v queued %d",
				got.stats, got.flowBytes, got.queued, want.stats, want.flowBytes, want.queued)
		}
		if got.queued != 0 {
			t.Errorf("%d packets left queued", got.queued)
		}
	})
}
