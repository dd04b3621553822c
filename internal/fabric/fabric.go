// Package fabric models the InfiniBand interconnect: links that serialize
// MTU-sized packets at a configured bandwidth, and a cut-through switch that
// forwards between hosts.
//
// The paper's interference mechanism lives here. Each host's HCA shares one
// uplink (host→switch) and one downlink (switch→host) among all QPs of all
// VMs on that host. When a VM with a 2 MB buffer streams 2048 MTUs while a
// 64 KB VM sends 64, their packets arbitrate for the same wire; the small
// flow's transfer stretches and its latency spreads — exactly the Figure 1
// distribution. Links support two service disciplines:
//
//   - RoundRobin (default): per-flow queues served one MTU at a time, the
//     virtual-lane-style arbitration of an IB HCA;
//   - FIFO: a single queue in arrival order, which lets a burst of a large
//     message head-of-line-block small flows. The difference between the two
//     is an ablation benchmark.
//
// The per-MTU path allocates nothing in steady state. A link serializes one
// packet at a time, so the packet on the wire lives in a field and its
// completion is a callback bound once at construction. Propagation delay
// and switch forwarding latency are constants, so packets leave those
// stages in the order they entered them: each stage is a FIFO whose head
// one pre-bound callback pops, firing at exactly the instants (and with the
// same event sequence numbers) a per-packet closure would. Queues are ring
// buffers (package ring) that reuse their storage.
//
// Those constant-delay events skip the engine's heap: arrivals, forwards
// and full-MTU serializations at a link's healthy rate are scheduled on the
// engine's queue for their delay (sim.Delay), which every link and switch
// of the engine with that delay shares. A short last MTU, an MTU on a
// degraded link and the pacing wake-up use sim.Engine.After.
//
// Link queues hold messages, not MTUs. On an uplink a whole message waits
// as one entry, a Train, and each MTU's Packet is built only when it starts
// serializing. A downlink with a packet pool (SetPool) queues a contiguous
// run of one train's MTUs as one entry too: a packet that continues the run
// at the tail of its queue goes back to the pool at once, and the link
// rebuilds it from the train when it reaches the wire. So a message's
// packets exist only on the wire, in propagation and in the switch.
// Packets themselves belong to their producer (package hca recycles them);
// this package never retains one after handing it to the next stage.
//
// Train fast-forward. Most MTUs have their links to themselves, and the
// per-MTU path spends five engine events on each: uplink serialized,
// uplink arrival, switch forward, downlink serialized, downlink arrival.
// When an uplink made by Switch.Uplink is about to serve a train whose
// next full-size MTUs are certain to go out back to back at the healthy
// rate (under RoundRobin no other flow is backlogged, under FIFO the
// train is at the head of the queue; the flow is not paced; the link is
// neither degraded nor down), it carries them in a segment instead, whose
// events are credited, not dispatched, and for which no packet is built.
// The segment covers the uplink, and from the first MTU that reaches the
// switch while the destination's downlink is local, healthy and serving no
// other source, the forward and that downlink too; until then each MTU
// enters the switch as a real packet. A segment that cannot claim its
// downlink by its second MTU ends, and a downlink whose claims keep being
// cut is left alone for a while (Link.backOff). The segments
// of one switch's uplinks share one engine entry (sim.Segment), and once
// they have all claimed their downlinks, whole periods of them, one MTU of
// each through every stage, are credited in closed form. The train's last
// MTU always takes the per-MTU path.
//
// A segment is materialized, its MTUs turned into the packets and events
// the per-MTU path would hold at that instant, exactly when its premise
// breaks: another flow queues on the uplink under RoundRobin, any packet
// reaches the claimed downlink, or SetDegrade, SetDown or
// SetFlowRateLimit is called on either link. Otherwise it ends at the
// last full MTU. Exactness is the contract: each credited event counts in
// Steps at the step and with the (at, seq) key the per-MTU path gives it,
// every pending key and the event pool's occupancy are the same at every
// breakpoint, RunUntil limit and window edge, and Stats, FlowBytes and
// Queued read the per-MTU values at any instant without ending a segment.
// The per-MTU path is the reference: FuzzFastForward compares the two
// through a switch with two uplinks and two downlinks.
package fabric

import (
	"fmt"

	"resex/internal/ring"
	"resex/internal/sim"
)

// DefaultMTU is the IB MTU used throughout the paper: 1 KB.
const DefaultMTU = 1024

// Packet is one MTU on the wire. Its fields are ordered to pack it into
// 80 bytes.
type Packet struct {
	// Flow keys arbitration on the egress link; sources use their QPN.
	Flow uint32
	// DstFlow is the destination QPN.
	DstFlow uint32
	// SrcNode and DstNode identify hosts (switch ports).
	SrcNode, DstNode int
	// Bytes is the wire size of this packet (≤ MTU).
	Bytes int
	// tr is the train the packet was built from, nil for a packet handed
	// to Send directly. A downlink folds it into a run of that train.
	tr *Train
	// Index is the MTU's position in its message and Last marks the final
	// MTU of the message.
	Index int
	Last  bool
	// stamped records that Sent has been set (Sent == 0 is a valid stamp).
	stamped bool
	// Meta carries an opaque reference for the consumer (e.g. the message
	// the MTU belongs to).
	Meta any
	// Sent is stamped by the first link the packet enters.
	Sent sim.Time
}

// Train is one message queued on a link as a single entry: MTUs packets,
// each a copy of Template whose Bytes is MTU, except the last, which
// carries LastBytes. Index and Last are set per packet. The link builds each
// packet with New only when it starts serializing, so a train of 2048 MTUs
// waiting behind other traffic holds no Packet at all. A train is
// arbitrated exactly like MTUs consecutive Sends of those packets at the
// moment SendTrain is called: Sent is that moment for every packet.
//
// The producer owns the Train and must not change or reuse it before its
// last packet has been delivered: a downlink rebuilds queued packets from
// it until then.
type Train struct {
	Template  Packet
	MTUs      int
	MTU       int
	LastBytes int
	New       func() *Packet
}

// PacketPool supplies the packets a downlink rebuilds from its runs and
// takes back the ones it folds into them. A run builds its packets from
// the same free list its delivered packets are recycled to.
type PacketPool interface {
	// RunPacket returns a zeroed packet to rebuild an MTU of tr into.
	RunPacket(tr *Train) *Packet
	// ReleasePacket takes back a packet the link no longer needs.
	ReleasePacket(pkt *Packet)
	// ReceiveRun takes n MTUs of tr, first..first+n-1, as delivered at at,
	// at+every, ...: a segment carried them onto the link and no packet
	// was built for them.
	ReceiveRun(tr *Train, first, n int, at, every sim.Time)
}

// entry is one item of a link queue: the packets of train tr with indices
// in [next, end), where pkt, if set, is packet next already built. A train
// queued with SendTrain is an entry of all its packets and no pkt. A packet
// handed to Send is an entry of one, with no train if it was built by hand,
// and starts a run that later packets of its train may extend.
type entry struct {
	tr        *Train
	pkt       *Packet
	next, end int32
}

// take returns the next packet of the entry at the head of queue, building
// it if it is not built yet, and pops the entry once its last packet is out.
func (l *Link) take(queue *ring.Queue[entry]) *Packet {
	e := queue.Front()
	pkt := e.pkt
	if pkt != nil {
		e.pkt = nil
	} else {
		t := e.tr
		if l.pool != nil {
			pkt = l.pool.RunPacket(t)
		} else {
			pkt = t.New()
		}
		*pkt = t.Template
		i := int(e.next)
		pkt.Index, pkt.Last, pkt.Bytes = i, i == t.MTUs-1, t.MTU
		if pkt.Last {
			pkt.Bytes = t.LastBytes
		}
	}
	e.next++
	if e.next == e.end {
		queue.Pop()
	}
	return pkt
}

// Discipline selects how a link arbitrates among flows.
type Discipline int

const (
	// RoundRobin serves per-flow queues one packet at a time.
	RoundRobin Discipline = iota
	// FIFO serves packets strictly in arrival order.
	FIFO
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case RoundRobin:
		return "rr"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// LinkStats aggregates what a link has carried.
type LinkStats struct {
	Packets   int64
	Bytes     int64
	BusyTime  sim.Time
	MaxQueued int
}

// Link is a unidirectional serializing channel: packets occupy the wire for
// Bytes/Bandwidth seconds each, then arrive at the receiver after the
// propagation delay. Queued packets wait according to the discipline; the
// queues hold trains and runs of them (see Train and SetPool), and every
// count a link reports is in packets.
type Link struct {
	eng     *sim.Engine
	name    string
	bps     float64 // bytes per second
	prop    sim.Time
	disc    Discipline
	deliver func(*Packet)
	pool    PacketPool // runs are formed only when set

	// Constant-delay event queues: full MTUs at the healthy rate finish
	// serializing through serQ (mtuSer after they start), every packet
	// arrives through propQ.
	mtuSer      sim.Time
	serQ, propQ *sim.Delay

	busy     bool
	cur      *Packet             // on the wire while busy
	curEnd   sim.Time            // when the wire's current MTU finishes
	curQ     *flowQueue          // cur's flow, charged when it finishes
	inflight ring.Queue[*Packet] // serialized and propagating, in send order
	fifo     ring.Queue[entry]
	flows    map[uint32]*flowQueue
	ring     []*flowQueue // active flows, round-robin order
	rrNext   int
	queued   int
	stats    LinkStats
	wakeup   sim.Timer // pending retry for rate-limited flows

	// Event callbacks, bound once so scheduling them allocates nothing.
	onSerialized, onArrive, onWake func()

	// Train fast-forward (see segment): sw is the switch the link delivers
	// into, if Switch.Uplink made it; seg is its segment state as a
	// source, reused, and claim the segment holding it as a downlink.
	// A downlink whose claims keep being cut is left alone until quiet,
	// for a wait that doubles with each cut and halves with each segment
	// that lasts to its run's end (see backOff). perMTU turns segments
	// off on the link, for tests of the reference per-MTU path.
	sw          *Switch
	seg         *segment
	claim       *segment
	quiet, wait sim.Time
	perMTU      bool

	// Fault state (driven by the faults package).
	degrade float64 // bandwidth multiplier in (0,1]; 0 means healthy (×1)
	down    bool    // link flapped down: serialization pauses, queues grow
}

type flowQueue struct {
	id     uint32
	trains ring.Queue[entry]
	limit  float64  // bytes/second; 0 = unlimited
	nextAt sim.Time // earliest time the next packet may start (pacing)
	bytes  int64    // carried so far, for IOShare accounting
}

// NewLink creates a link. bandwidth is in bytes/second; prop is the
// propagation delay added after serialization; deliver receives each packet
// at its arrival time.
func NewLink(eng *sim.Engine, name string, bandwidth float64, prop sim.Time, disc Discipline, deliver func(*Packet)) *Link {
	if bandwidth <= 0 {
		panic("fabric: link bandwidth must be positive")
	}
	if deliver == nil {
		panic("fabric: link needs a deliver function")
	}
	l := &Link{
		eng:     eng,
		name:    name,
		bps:     bandwidth,
		prop:    prop,
		disc:    disc,
		deliver: deliver,
		flows:   make(map[uint32]*flowQueue),
		mtuSer:  sim.DurationOfBytes(DefaultMTU, bandwidth),
		propQ:   eng.Delay(prop),
	}
	l.serQ = eng.Delay(l.mtuSer)
	l.onSerialized, l.onArrive, l.onWake = l.serialized, l.arrive, l.wake
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link rate in bytes per second.
func (l *Link) Bandwidth() float64 { return l.bps }

// Propagation returns the link's fixed propagation delay — one term of the
// fabric's lookahead contract (see Switch.Latency).
func (l *Link) Propagation() sim.Time { return l.prop }

// Stats returns a snapshot of cumulative link statistics.
func (l *Link) Stats() LinkStats { return l.stats }

// FlowBytes returns cumulative bytes carried for a flow.
func (l *Link) FlowBytes(flow uint32) int64 {
	if q, ok := l.flows[flow]; ok {
		return q.bytes
	}
	return 0
}

// QueueCap returns how many entries the link's queues hold without
// growing: the storage its deepest backlogs left behind.
func (l *Link) QueueCap() int {
	n := l.fifo.Cap()
	for _, q := range l.flows {
		n += q.trains.Cap()
	}
	return n
}

// Queued returns the number of packets waiting or in flight on the wire.
func (l *Link) Queued() int { return l.queued }

// SetDegrade scales the link's effective bandwidth by factor (0 < factor ≤ 1)
// — a degraded cable, a retraining SerDes, congestion upstream of the model.
// Factors outside (0,1) restore full bandwidth. The packet currently being
// serialized finishes at the rate it started with; subsequent packets use
// the degraded rate.
func (l *Link) SetDegrade(factor float64) {
	if factor <= 0 || factor >= 1 {
		factor = 0 // healthy
	}
	l.cut()
	l.degrade = factor
}

// Degrade returns the active bandwidth multiplier (1 when healthy).
func (l *Link) Degrade() float64 {
	if l.degrade == 0 {
		return 1
	}
	return l.degrade
}

// effectiveBps is the serialization rate under the active degradation.
func (l *Link) effectiveBps() float64 {
	if l.degrade == 0 {
		return l.bps
	}
	return l.bps * l.degrade
}

// SetDown flaps the link: while down, no new packet starts serializing
// (the one already on the wire completes) and senders keep queueing. Bringing
// the link back up resumes transmission from the queues.
func (l *Link) SetDown(down bool) {
	l.cut()
	l.down = down
	if !down && !l.busy {
		l.transmitNext()
	}
}

// SetFlowRateLimit paces a flow to at most bytesPerSec (0 removes the
// limit). This models the per-traffic-flow bandwidth limits of newer
// InfiniBand adapters that the paper's introduction points to as emerging
// hardware support; the rate-limit ablation benchmark compares it against
// ResEx's CPU-cap mechanism. Only meaningful with RoundRobin discipline.
func (l *Link) SetFlowRateLimit(flow uint32, bytesPerSec float64) {
	l.cut()
	q := l.flow(flow)
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	q.limit = bytesPerSec
	if bytesPerSec == 0 {
		q.nextAt = 0
	}
	if !l.busy {
		l.transmitNext()
	}
}

// FlowRateLimit returns the flow's configured pacing rate (0 = unlimited).
func (l *Link) FlowRateLimit(flow uint32) float64 {
	if q, ok := l.flows[flow]; ok {
		return q.limit
	}
	return 0
}

// SetPool lets the link queue runs of train-built packets (see Send),
// rebuilding and releasing packets through p. A downlink's pool is the HCA
// it delivers to.
func (l *Link) SetPool(p PacketPool) { l.pool = p }

// flow returns the per-flow state for id, creating it on first use.
func (l *Link) flow(id uint32) *flowQueue {
	q, ok := l.flows[id]
	if !ok {
		q = &flowQueue{id: id}
		l.flows[id] = q
	}
	return q
}

// Send enqueues a packet for transmission. On a link with a pool, a packet
// built from a train that continues the run at the tail of its queue (the
// flow's queue under RoundRobin, the single queue under FIFO) extends that
// run and goes back to the pool at once; the link rebuilds an equal packet
// when the run reaches it. Any other packet is queued as it is.
func (l *Link) Send(pkt *Packet) {
	if !pkt.stamped {
		pkt.Sent, pkt.stamped = l.eng.Now(), true
	}
	l.yield(pkt.Flow)
	queue, q := l.queueOf(pkt.Flow)
	tr, i := pkt.tr, int32(pkt.Index)
	if tr != nil && l.pool != nil && queue.Len() > 0 {
		if back := queue.Back(); back.tr == tr && back.end == i {
			back.end++
			l.pool.ReleasePacket(pkt)
			l.admit(1, nil)
			return
		}
	}
	l.enqueue(queue, q, entry{tr: tr, pkt: pkt, next: i, end: i + 1}, 1)
}

// SendTrain enqueues every packet of tr for transmission, in order, as
// consecutive Sends of them would. tr must hold at least one packet.
func (l *Link) SendTrain(tr *Train) {
	if tr.MTUs < 1 {
		panic(fmt.Sprintf("fabric: train of %d packets", tr.MTUs))
	}
	tr.Template.Sent, tr.Template.stamped, tr.Template.tr = l.eng.Now(), true, tr
	l.yield(tr.Template.Flow)
	queue, q := l.queueOf(tr.Template.Flow)
	l.enqueue(queue, q, entry{tr: tr, end: int32(tr.MTUs)}, tr.MTUs)
}

// queueOf returns the queue a packet of flow joins and, under RoundRobin,
// the flow's state.
func (l *Link) queueOf(flow uint32) (*ring.Queue[entry], *flowQueue) {
	if l.disc == FIFO {
		return &l.fifo, nil
	}
	q := l.flow(flow)
	return &q.trains, q
}

// enqueue pushes e, which holds n packets, onto queue, the queue of flow q
// (nil under FIFO), and admits them.
func (l *Link) enqueue(queue *ring.Queue[entry], q *flowQueue, e entry, n int) {
	var fresh *flowQueue // flow that e brought onto the ring
	if q != nil && queue.Len() == 0 {
		l.ring = append(l.ring, q)
		fresh = q
	}
	queue.Push(e)
	l.admit(n, fresh)
}

// admit counts n packets just queued, fresh being the flow they brought
// onto the ring if any, and starts the wire if it is idle.
func (l *Link) admit(n int, fresh *flowQueue) {
	l.queued += n
	if l.queued > l.stats.MaxQueued {
		l.stats.MaxQueued = l.queued
	}
	if l.busy {
		return
	}
	l.transmitNext()
	if n > 1 && fresh != nil && l.curQ == fresh {
		// The train's first packet went straight onto the wire. One Send per
		// packet would have emptied the flow with it, dropping it from
		// the ring, and put it back at the end with the second packet:
		// move it there, with rrNext on the flow that followed it.
		k := l.rrNext - 1
		copy(l.ring[k:], l.ring[k+1:])
		l.ring[len(l.ring)-1] = fresh
		l.rrNext = k
	}
	// An idle link whose flows are all paced out re-arms its wake-up once
	// per packet queued, as one Send per packet does: each re-arm takes an
	// event sequence number.
	for i := 1; i < n && !l.busy && !l.down; i++ {
		l.armWakeup()
	}
}

// next pops the next packet according to the discipline, honoring per-flow
// pacing, and returns it with its flow's state. It returns a nil packet when
// nothing is eligible right now.
func (l *Link) next() (*Packet, *flowQueue) {
	switch l.disc {
	case FIFO:
		if l.fifo.Len() == 0 {
			return nil, nil
		}
		pkt := l.take(&l.fifo)
		return pkt, l.flow(pkt.Flow)
	default:
		now := l.eng.Now()
		for scanned, n := 0, len(l.ring); scanned < n; scanned++ {
			if l.rrNext >= len(l.ring) {
				l.rrNext = 0
			}
			q := l.ring[l.rrNext]
			if q.limit > 0 && q.nextAt > now {
				l.rrNext++ // paced out: try the next flow
				continue
			}
			pkt := l.take(&q.trains)
			if q.limit > 0 {
				start := now
				if q.nextAt > start {
					start = q.nextAt
				}
				q.nextAt = start + sim.DurationOfBytes(int64(pkt.Bytes), q.limit)
			}
			if q.trains.Len() == 0 {
				l.ring = append(l.ring[:l.rrNext], l.ring[l.rrNext+1:]...)
				// rrNext now points at the flow after the removed one.
			} else {
				l.rrNext++
			}
			return pkt, q
		}
		return nil, nil // every queued flow is paced out
	}
}

// armWakeup schedules a retry at the earliest pacing release among queued
// flows, so a fully paced-out link resumes by itself.
func (l *Link) armWakeup() {
	var at sim.Time = -1
	for _, q := range l.ring {
		if q.trains.Len() > 0 && q.limit > 0 && (at < 0 || q.nextAt < at) {
			at = q.nextAt
		}
	}
	if at < 0 {
		return
	}
	l.wakeup.Stop()
	l.wakeup = l.eng.Schedule(at, l.onWake)
}

// wake is the pacing retry armed by armWakeup.
func (l *Link) wake() {
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext serializes the next queued packet.
func (l *Link) transmitNext() {
	if l.down {
		l.busy = false
		return
	}
	if l.sw != nil && (l.disc == FIFO || len(l.ring) == 1) && l.startSegment() {
		return
	}
	pkt, q := l.next()
	if pkt == nil {
		l.busy = false
		l.armWakeup()
		return
	}
	l.busy = true
	l.cur, l.curQ = pkt, q
	ser := sim.DurationOfBytes(int64(pkt.Bytes), l.effectiveBps())
	l.stats.BusyTime += ser
	l.curEnd = l.eng.Now() + ser
	if ser == l.mtuSer {
		l.serQ.After(l.onSerialized)
	} else {
		l.eng.After(ser, l.onSerialized) // a short last MTU, a degraded link
	}
}

// serialized fires when cur has left the wire: it starts propagating and the
// next packet starts serializing.
func (l *Link) serialized() {
	pkt, q := l.cur, l.curQ
	l.cur, l.curQ = nil, nil
	l.stats.Packets++
	l.stats.Bytes += int64(pkt.Bytes)
	q.bytes += int64(pkt.Bytes)
	l.queued--
	l.inflight.Push(pkt)
	l.propQ.After(l.onArrive)
	l.transmitNext()
}

// arrive delivers the oldest propagating packet. The propagation delay is
// constant, so arrivals fire in the order serialized pushed them.
func (l *Link) arrive() { l.deliver(l.inflight.Pop()) }

// Switch is an output-queued crossbar: packets injected from host uplinks
// are forwarded, after a fixed forwarding latency, onto the egress link of
// their destination node.
type Switch struct {
	latency   sim.Time
	ports     []*Link // egress link by node, nil where none is attached
	defRoute  func(pkt *Packet)
	pending   ring.Queue[hop] // injected, awaiting forwarding, in inject order
	fwdQ      *sim.Delay      // forwards, latency after their injection
	onForward func()          // s.forward, bound once
	ff        *group          // the segments of its uplinks' trains
}

// hop is a packet inside the switch, the egress link it was routed to
// (nil: the default route) and the seq of its forward event.
type hop struct {
	pkt    *Packet
	egress *Link
	seq    uint64
}

// NewSwitch creates a switch with the given forwarding latency.
func NewSwitch(eng *sim.Engine, latency sim.Time) *Switch {
	s := &Switch{latency: latency, fwdQ: eng.Delay(latency)}
	s.onForward = s.forward
	return s
}

// Uplink creates a host→switch link, as NewLink does, that delivers into
// s. A train such a link serves back to back can cross the switch and the
// destination's downlink as one segment.
func (s *Switch) Uplink(eng *sim.Engine, name string, bandwidth float64, prop sim.Time, disc Discipline) *Link {
	l := NewLink(eng, name, bandwidth, prop, disc, s.Inject)
	l.sw = s
	return l
}

// Latency returns the fixed forwarding latency. Together with
// Link.Propagation it defines the fabric's lookahead contract: any packet
// crossing host boundaries is in flight for at least the sum of its path's
// propagation delays plus one switch latency, so a sharded run
// (internal/simpar) may safely simulate that far ahead without hearing
// from other hosts.
func (s *Switch) Latency() sim.Time { return s.latency }

// AttachNode connects node's downlink (switch→host egress link).
func (s *Switch) AttachNode(node int, egress *Link) {
	if egress == nil {
		panic(fmt.Sprintf("fabric: node %d attached without an egress link", node))
	}
	if node < 0 {
		panic(fmt.Sprintf("fabric: negative node %d", node))
	}
	for len(s.ports) <= node {
		s.ports = append(s.ports, nil)
	}
	if s.ports[node] != nil {
		panic(fmt.Sprintf("fabric: node %d already attached", node))
	}
	s.ports[node] = egress
}

// SetDefaultRoute installs an uplink port: packets for nodes with no
// attached egress link are handed to f after the forwarding latency,
// instead of panicking. A sharded interconnect uses this as the site
// switch's trunk toward hosts that live on other engines.
func (s *Switch) SetDefaultRoute(f func(pkt *Packet)) { s.defRoute = f }

// Inject receives a packet from a host uplink and forwards it. Unknown
// destinations panic unless a default route is installed: the simulated
// cluster is statically wired.
func (s *Switch) Inject(pkt *Packet) {
	var egress *Link
	if n := pkt.DstNode; n >= 0 && n < len(s.ports) {
		egress = s.ports[n]
	}
	if egress == nil && s.defRoute == nil {
		panic(fmt.Sprintf("fabric: packet for unattached node %d", pkt.DstNode))
	}
	s.pending.Push(hop{pkt: pkt, egress: egress, seq: s.fwdQ.After(s.onForward)})
}

// insert queues h, a hop a segment materializes, among the pending ones in
// the order of their forward events.
func (s *Switch) insert(h hop) {
	i := s.pending.Len()
	for i > 0 && s.pending.At(i-1).seq > h.seq {
		i--
	}
	s.pending.Insert(i, h)
}

// forward hands the oldest pending packet to its egress. The forwarding
// latency is constant, so forwards fire in the order Inject queued them.
func (s *Switch) forward() {
	h := s.pending.Pop()
	if h.egress == nil {
		s.defRoute(h.pkt)
		return
	}
	h.egress.Send(h.pkt)
}
