package fabric

import (
	"fmt"
	"testing"

	"resex/internal/sim"
)

// The closed-form oracle: when each MTU of a message reaches its receiver,
// computed from the MTU size, the link rate, the propagation delay and the
// switch latency alone, with none of the link's scheduling code. The
// values are the paper testbed's (internal/cluster): 1 GB/s links, 100 ns
// per hop and a 200 ns switch.
const (
	oracleRate    = 1e9
	oracleProp    = 100 * sim.Nanosecond
	oracleLatency = 200 * sim.Nanosecond
)

// oracleMTUTime is one full MTU's serialization time: 1024 ns at 1 GB/s.
const oracleMTUTime = sim.Time(DefaultMTU * int64(sim.Second) / oracleRate)

// oracleArrival is when an MTU that starts serializing on the uplink at
// start reaches its receiver, through a downlink of the uplink's rate that
// nothing else holds up: it leaves the uplink one MTU time later, crosses
// to the switch, is forwarded, leaves the downlink one MTU time after
// that and crosses to the receiver.
func oracleArrival(start sim.Time) sim.Time {
	return start + oracleMTUTime + oracleProp + oracleLatency + oracleMTUTime + oracleProp
}

// oracleRig is one uplink into a switch and one downlink, with a pool so
// that segments may claim it, that records when each MTU of flow arrives.
type oracleRig struct {
	eng     *sim.Engine
	up      *Link
	flow    uint32
	got     map[int]sim.Time // by MTU index, of the watched flow
	credits int              // of those, MTUs a segment carried
}

func newOracleRig(disc Discipline, perMTU bool, flow uint32) *oracleRig {
	r := &oracleRig{eng: sim.New(), got: map[int]sim.Time{}, flow: flow}
	record := func(a arrival, credited bool) {
		if a.pkt.Flow == r.flow {
			r.got[a.pkt.Index] = a.at
			if credited {
				r.credits++
			}
		}
	}
	pool := &oraclePool{record: record}
	sw := NewSwitch(r.eng, oracleLatency)
	down := NewLink(r.eng, "down", oracleRate, oracleProp, RoundRobin, func(pkt *Packet) {
		record(arrival{r.eng.Now(), *pkt}, false)
		pool.ReleasePacket(pkt)
	})
	down.SetPool(pool)
	sw.AttachNode(1, down)
	r.up = sw.Uplink(r.eng, "up", oracleRate, oracleProp, disc)
	r.up.perMTU, down.perMTU = perMTU, perMTU
	return r
}

// oraclePool records the MTUs a segment delivers without packets.
type oraclePool struct {
	listPool
	record func(a arrival, credited bool)
}

func (p *oraclePool) ReceiveRun(tr *Train, first, n int, at, every sim.Time) {
	for i := 0; i < n; i++ {
		pkt := tr.Template
		pkt.Index = first + i
		p.record(arrival{at + sim.Time(i)*every, pkt}, true)
	}
}

// send queues a message of mtus full MTUs of flow toward node 1 at t.
func (r *oracleRig) send(t sim.Time, flow uint32, mtus int) {
	tr := &Train{
		Template:  Packet{Flow: flow, DstNode: 1},
		MTUs:      mtus,
		MTU:       DefaultMTU,
		LastBytes: DefaultMTU,
		New:       func() *Packet { return new(Packet) },
	}
	r.eng.Schedule(t, func() { r.up.SendTrain(tr) })
}

// check runs the rig and compares every MTU of the watched message with
// want, the start of its serialization on the uplink by index.
func (r *oracleRig) check(t *testing.T, want []sim.Time) {
	t.Helper()
	r.eng.Run()
	if len(r.got) != len(want) {
		t.Fatalf("%d MTUs of the message arrived, want %d", len(r.got), len(want))
	}
	for i, start := range want {
		if got, w := r.got[i], oracleArrival(start); got != w {
			t.Errorf("MTU %d of %d arrived at %v, oracle %v", i, len(want), got, w)
		}
	}
}

// TestOracleRoundRobin: a message of m MTUs joins k-1 flows that stay
// backlogged with full MTUs on a RoundRobin uplink, all toward one
// downlink. The background flows are queued at 0: the first one goes on
// the wire at once and again in slot 1, the slot [s, 2s) of MTU time s, as
// it was queued first, and from then on they take turns in the order they
// were queued. The message joins in the middle of slot i, while background
// flow c = (i-1) mod (k-1) is on the wire, behind every flow the turn has
// not reached yet: its first MTU starts in slot i + k-1-c and each next
// one k slots later. Alone (k = 1) it starts at once, one MTU after the
// other. Every phase c is checked, per-MTU and with segments.
func TestOracleRoundRobin(t *testing.T) {
	s := oracleMTUTime
	for _, perMTU := range []bool{true, false} {
		for k := 1; k <= 4; k++ {
			for _, m := range []int{1, 64} {
				phases := max(k-1, 1)
				for c := 0; c < phases; c++ {
					name := fmt.Sprintf("perMTU=%v/k=%d/m=%d/phase=%d", perMTU, k, m, c)
					t.Run(name, func(t *testing.T) {
						msg := uint32(k)
						r := newOracleRig(RoundRobin, perMTU, msg)
						for b := 0; b < k-1; b++ {
							r.send(0, uint32(b), 1024)
						}
						i := 10*(k-1) + 1 + c // a slot of background flow c
						join := sim.Time(i)*s + s/2
						r.send(join, msg, m)
						want := make([]sim.Time, m)
						for j := range want {
							if k == 1 {
								want[j] = join + sim.Time(j)*s
							} else {
								want[j] = sim.Time(i+k-1-c+j*k) * s
							}
						}
						r.check(t, want)
						if !perMTU && m > 1 && r.credits < m/2 {
							t.Errorf("segments carried %d of the message's %d MTUs, want at least half", r.credits, m)
						}
					})
				}
			}
		}
	}
}

// TestOracleFIFO: on a FIFO uplink a message of m MTUs queued behind a head
// train of b MTUs, queued at 0, starts when the head train's last MTU has
// left the wire, in slot b, and goes out back to back.
func TestOracleFIFO(t *testing.T) {
	s := oracleMTUTime
	for _, perMTU := range []bool{true, false} {
		for _, b := range []int{1, 64, 2048} {
			for _, m := range []int{1, 64} {
				t.Run(fmt.Sprintf("perMTU=%v/b=%d/m=%d", perMTU, b, m), func(t *testing.T) {
					r := newOracleRig(FIFO, perMTU, 2)
					r.send(0, 1, b)
					r.send(s/2, 2, m)
					want := make([]sim.Time, m)
					for j := range want {
						want[j] = sim.Time(b+j) * s
					}
					r.check(t, want)
				})
			}
		}
	}
}
