package fabric

import (
	"math"

	"resex/internal/sim"
)

// minSegment is the fewest full MTUs a segment starts with: shorter runs
// cost more to start and cut than their elided events save.
const minSegment = 4

// Stages of a segment, one engine lane each: an MTU finishes serializing
// on the uplink, arrives at the switch, is forwarded, finishes serializing
// on the downlink and arrives at its receiver.
const (
	serUp = iota
	arrUp
	fwd
	serDown
	arrDown
	stages
)

// segment carries the full-size MTUs of the trains at the heads of k flows,
// which its source link serves back to back at the healthy rate in a fixed
// rotation, as credited engine events (see sim.Segment): no packet is built
// and no callback runs for them. Under FIFO, or with one flow backlogged
// under RoundRobin, k is 1. Otherwise the k flows are the whole of the
// uplink's ring, every head an unbuilt train toward one downlink, and the
// uplink serves one MTU of each in turn from rrNext. A segment always
// covers the uplink's serialization and propagation. When its first MTU
// reaches the switch, it claims the destination downlink if that is free,
// and covers the forward, the downlink's serialization and the arrival
// too. A segment that cannot claim it then delivers that MTU as a real
// packet and ends.
//
// The run's MTUs are numbered by position from 0 in the order the uplink
// starts them: position p is MTU rot[p%k].a + p/k of the train of flow
// rot[p%k]. Each stage still handles one MTU per uplink serialization, so
// the lanes hold positions and only the per-flow counters follow the
// rotation.
//
// Every credited stage applies to the links the effects the per-MTU path
// would, counters included, so Stats, FlowBytes and Queued are exact at any
// instant. materialize hands the state back to the per-MTU path, building
// the packets still on a wire, in propagation or in the switch; the link
// calls it when the run's premise breaks: a flow outside the rotation
// queues on the source under RoundRobin, any packet reaches the claimed
// downlink, or either link is degraded, flapped or paced. A train's last
// MTU, which may be short and which completes the message, always takes
// the per-MTU path, so the run ends at the first position that would start
// one.
//
// A segment's state belongs to its source link and is reused by the link's
// later segments; its lanes are a block of its group's (see group).
type segment struct {
	grp  *group
	base int // the index of lane[0] in the group
	lane [stages]*sim.Lane
	// first is the position of the MTU at the head of each lane; a lane
	// holds consecutive positions.
	first [stages]int

	src  *Link
	rot  []turn // the rotation's flows, in service order
	r0   int    // rot[0]'s index in src's ring under RoundRobin
	node int    // the destination of every train of the rotation
	dst  *Link  // the claimed downlink, nil until claimed
	on   bool
	// next is the next position to start serializing on src and end the
	// first position the per-MTU path sends: a train's last MTU.
	next, end int

	// Arrivals at the receiver, from position 0: its arrival time, how many
	// have arrived and how many of those the pool was told of.
	recvAt         sim.Time
	recv, reported int
}

// turn is one flow of a segment's rotation: the train at its head, its
// state on the source and, once claimed, on the downlink, and the train's
// MTU at the flow's first position.
type turn struct {
	tr *Train
	q  *flowQueue
	dq *flowQueue
	a  int
}

// turn returns the rotation's flow at position p.
func (g *segment) turn(p int) *turn { return &g.rot[p%len(g.rot)] }

// build returns the MTU at position p as the per-MTU path builds it.
func (g *segment) build(p int) *Packet {
	t := g.turn(p)
	pkt := t.tr.New()
	*pkt = t.tr.Template
	pkt.Index, pkt.Bytes = t.a+p/len(g.rot), t.tr.MTU
	return pkt
}

// perTurn returns how many of the n positions from p belong to the
// rotation's flow s.
func (g *segment) perTurn(p, n, s int) int {
	k := len(g.rot)
	c := n / k
	if (s-p%k+k)%k < n%k {
		c++
	}
	return c
}

// group is the segments of the uplinks of one switch, sharing one engine
// segment. Two segments running side by side then interleave their events
// inside one advance, without a turn of the run loop between them, and
// whole periods of all of them are credited at once (see jump).
type group struct {
	eng    *sim.Engine
	seg    *sim.Segment
	lanes  []*sim.Lane
	segs   []*segment // by lane block: segs[i] owns lanes [i*stages, (i+1)*stages)
	live   []*segment // segments running, in start order
	unread []*segment // segments with arrivals their receiver has not heard of
	open   int        // of live, those that have not claimed their downlink
	anchor int        // the lane of live[0]'s uplink serialization, -1 while open > 0

	// Period detection (see period.go).
	obs       pattern
	obsAt     sim.Time
	observing bool
	learned   bool
}

func newGroup(eng *sim.Engine) *group {
	f := &group{eng: eng, anchor: -1}
	f.seg = eng.NewSegment(f.advance)
	return f
}

// newSegment binds the uplink src's reusable segment state to its
// switch's group.
func newSegment(src *Link) *segment {
	sw := src.sw
	if sw.ff == nil {
		sw.ff = newGroup(src.eng)
	}
	f := sw.ff
	g := &segment{grp: f, src: src, base: len(f.lanes)}
	for i := range g.lane {
		g.lane[i] = f.seg.Lane()
		f.lanes = append(f.lanes, g.lane[i])
	}
	f.segs = append(f.segs, g)
	return g
}

// startSegment starts a segment with the entries transmitNext is about to
// serve when a run of their trains' MTUs is certain to go out back to back:
// the link is healthy, and the entry at the head of every flow it serves is
// an unbuilt train of full-size MTUs toward one claimable downlink (see
// claimable), its flow not paced. Under FIFO that is the queue's head,
// which FIFO serves whole; under RoundRobin it is the head of every flow on
// the ring, which then take turns. The link must be a switch's uplink: a
// segment that only covered the uplink would save too little. The front
// flow's downlink is checked first, before the ring is scanned. It reports
// whether it started one; the link is then busy with the run's first MTU.
func (l *Link) startSegment() bool {
	if l.perMTU || l.degrade != 0 || l.pool != nil {
		return false
	}
	var e *entry
	r0 := 0
	if l.disc == FIFO {
		if l.fifo.Len() == 0 {
			return false
		}
		e = l.fifo.Front()
	} else {
		if len(l.ring) == 0 {
			return false
		}
		if r0 = l.rrNext; r0 >= len(l.ring) {
			r0 = 0
		}
		e = l.ring[r0].trains.Front()
	}
	if e.tr == nil {
		return false
	}
	node := e.tr.Template.DstNode
	if l.sw.claimable(node, l) == nil {
		return false
	}
	g := l.seg
	if g == nil {
		g = newSegment(l)
		l.seg = g
	}
	g.rot = g.rot[:0]
	var end int
	if l.disc == FIFO {
		if !fullTrain(e) {
			return false
		}
		q := l.flow(e.tr.Template.Flow)
		if q.limit > 0 {
			return false
		}
		g.rot = append(g.rot, turn{tr: e.tr, q: q, a: int(e.next)})
		end = e.tr.MTUs - 1 - int(e.next)
	} else {
		k := len(l.ring)
		end = math.MaxInt
		for s := 0; s < k; s++ {
			q := l.ring[(r0+s)%k]
			h := q.trains.Front()
			if q.limit > 0 || !fullTrain(h) || h.tr.Template.DstNode != node {
				return false
			}
			// The flow's last MTU, at position r·k+s, ends the run.
			end = min(end, (h.tr.MTUs-1-int(h.next))*k+s)
			g.rot = append(g.rot, turn{tr: h.tr, q: q, a: int(h.next)})
		}
	}
	if end < minSegment {
		return false
	}
	g.r0, g.node, g.dst, g.on = r0, node, nil, true
	g.next, g.end = 1, end
	g.first = [stages]int{}
	g.recv, g.reported = 0, 0
	f := g.grp
	f.live = append(f.live, g)
	f.open++
	f.changed()
	l.busy = true
	l.curQ = g.rot[0].q // admit reads it as the per-MTU path would leave it
	if l.disc == RoundRobin {
		l.rrNext = r0 + 1 // next() took from rot[0], which stays
	}
	g.startUp()
	return true
}

// fullTrain reports whether e is a whole train of full-size MTUs, none of
// its packets built.
func fullTrain(e *entry) bool {
	tr := e.tr
	return e.pkt == nil && tr != nil && tr.MTU == DefaultMTU && int(e.end) == tr.MTUs
}

// changed forgets the group's period after its live segments changed.
func (f *group) changed() {
	f.observing, f.learned = false, false
	f.anchor = -1
	if f.open == 0 && len(f.live) > 0 {
		f.anchor = f.live[0].base + serUp
	}
}

// startUp puts the MTU at position next-1 on the source's wire.
func (g *segment) startUp() {
	u := g.src
	u.stats.BusyTime += u.mtuSer
	g.grp.sched(g.base+serUp, u.mtuSer)
}

// advance credits the group's events while they come before the bound the
// engine gives, and stops early after any step that handed a packet or a
// link back to the per-MTU path, since that may have scheduled an earlier
// event.
func (f *group) advance(boundAt sim.Time, boundSeq uint64, limit sim.Time) {
	for {
		li, at, seq := f.seg.Head()
		if li < 0 || at > limit || at > boundAt || (at == boundAt && seq >= boundSeq) {
			break
		}
		if li == f.anchor {
			if f.learned {
				if f.jump(at, boundAt, limit) {
					continue
				}
			} else {
				f.anchorAt(at)
			}
		}
		f.seg.Credit()
		if f.observing {
			f.observe(li, at)
		}
		if !f.segs[li/stages].credited(li % stages) {
			break
		}
	}
	for i, g := range f.unread {
		g.flush()
		f.unread[i] = nil
	}
	f.unread = f.unread[:0]
}

// credited applies the effects of stage x's credited event. It reports
// false after handing a packet or the link to the per-MTU path.
func (g *segment) credited(x int) bool {
	switch x {
	case serUp:
		return g.serializedUp()
	case arrUp:
		return g.arrivedUp()
	case fwd:
		g.forwarded()
	case serDown:
		g.serializedDown()
	default:
		g.arrivedDown()
	}
	return true
}

// serializedUp is Link.serialized for an MTU of the run: it starts
// propagating and the next MTU starts serializing. Before a train's last
// MTU it hands the link back to the per-MTU path, which sends that MTU, and
// reports false.
func (g *segment) serializedUp() bool {
	u := g.src
	u.stats.Packets++
	u.stats.Bytes += DefaultMTU
	g.turn(g.first[serUp]).q.bytes += DefaultMTU
	u.queued--
	g.first[serUp]++
	g.grp.sched(g.base+arrUp, u.prop)
	if g.next == g.end {
		if d := g.dst; d != nil {
			d.wait /= 2
		}
		g.materialize()
		u.transmitNext()
		return false
	}
	g.next++
	g.startUp()
	return true
}

// arrivedUp is Link.arrive for an MTU of the run: it reaches the switch. A
// segment that holds the downlink forwards it as a credited event. One that
// does not tries to claim the downlink now. Failing that, the downlink
// serves other sources: the MTU goes to the switch as a real packet, the
// segment ends, the downlink is left alone for a while, and it reports
// false.
func (g *segment) arrivedUp() bool {
	p := g.first[arrUp]
	g.first[arrUp]++
	if g.dst == nil && !g.claim() {
		g.src.deliver(g.build(p))
		if d := g.src.sw.port(g.node); d != nil {
			d.backOff()
		}
		g.materialize()
		return false
	}
	g.grp.sched(g.base+fwd, g.src.sw.latency)
	return true
}

// claim takes the destination downlink for the whole run as its first MTU
// reaches the switch, if it is claimable and nothing else can touch it
// before that MTU's forward: no other segment holds it, nothing waits on it
// or in the switch for it, the packet on its wire finishes by then, and it
// paces none of the rotation's flows.
func (g *segment) claim() bool {
	sw := g.src.sw
	d := sw.claimable(g.node, g.src)
	if d == nil || d.claim != nil {
		return false
	}
	busy := 0
	if d.busy {
		busy = 1
		if d.curEnd > g.grp.eng.Now()+sw.latency {
			return false
		}
	}
	if d.queued != busy {
		return false
	}
	for i := range g.rot {
		if q, ok := d.flows[g.rot[i].tr.Template.Flow]; ok && q.limit > 0 {
			return false
		}
	}
	for i := 0; i < sw.pending.Len(); i++ {
		if sw.pending.At(i).egress == d {
			return false
		}
	}
	d.claim = g
	g.dst = d
	for i := range g.rot {
		g.rot[i].dq = d.flow(g.rot[i].tr.Template.Flow)
	}
	g.grp.open--
	g.grp.changed()
	return true
}

// forwarded is Switch.forward and Link.Send onto the claimed downlink, idle
// by the claim's timing, which starts serializing the MTU at once.
func (g *segment) forwarded() {
	d := g.dst
	if d.busy {
		panic("fabric: segment forwarded onto a busy downlink")
	}
	g.first[fwd]++
	d.queued++
	if d.queued > d.stats.MaxQueued {
		d.stats.MaxQueued = d.queued
	}
	if d.disc == RoundRobin {
		d.rrNext = 0 // next() took the flow the Send put on the empty ring
	}
	d.busy = true
	d.stats.BusyTime += d.mtuSer
	g.grp.sched(g.base+serDown, d.mtuSer)
}

// serializedDown is Link.serialized on the claimed downlink: the MTU starts
// propagating and the wire goes idle, nothing else being queued there.
func (g *segment) serializedDown() {
	d := g.dst
	d.stats.Packets++
	d.stats.Bytes += DefaultMTU
	g.turn(g.first[serDown]).dq.bytes += DefaultMTU
	d.queued--
	g.first[serDown]++
	g.grp.sched(g.base+arrDown, d.prop)
	d.busy = false
}

// arrivedDown is Link.arrive on the claimed downlink. The receiver hears of
// arrivals in batches (flush).
func (g *segment) arrivedDown() {
	if g.recv == 0 {
		g.recvAt = g.grp.eng.Now()
	}
	g.unread()
	g.first[arrDown]++
	g.recv++
}

// unread lists g for the flush that ends its group's advance, before an
// arrival the receiver has not heard of.
func (g *segment) unread() {
	if g.recv == g.reported {
		g.grp.unread = append(g.grp.unread, g)
	}
}

// flush tells the downlink's pool of the arrivals it has not heard of, one
// run per train. Consecutive positions arrive one source serialization
// apart, so a train's MTUs arrive k of them apart.
func (g *segment) flush() {
	n := g.recv - g.reported
	if n == 0 {
		return
	}
	k := len(g.rot)
	p := g.reported
	at, every := g.recvAt+sim.Time(g.reported)*g.src.mtuSer, g.src.mtuSer
	for j := 0; j < min(n, k); j++ {
		t := g.turn(p + j)
		g.dst.pool.ReceiveRun(t.tr, t.a+(p+j)/k, (n-j+k-1)/k, at+sim.Time(j)*every, sim.Time(k)*every)
	}
	g.reported = g.recv
}

// materialize ends the segment: every MTU it holds becomes the packet the
// per-MTU path would have at this instant, on the wire, in propagation or
// in the switch, and every held event an engine event with its key.
func (g *segment) materialize() {
	g.flush()
	u := g.src
	k := len(g.rot)
	if u.disc == FIFO {
		u.fifo.Front().next = int32(g.rot[0].a + g.next)
	} else {
		for s := range g.rot {
			t := &g.rot[s]
			t.q.trains.Front().next = int32(t.a + g.perTurn(0, g.next, s))
		}
		if g.next > 1 {
			// next() took the flow of position next-1. After position 0
			// rrNext is what startSegment, or admit after it, left.
			u.rrNext = (g.r0+g.next-1)%k + 1
		}
	}
	u.cur, u.curQ = nil, nil
	if g.lane[serUp].Len() > 0 {
		u.cur, u.curQ = g.build(g.next-1), g.turn(g.next-1).q
	}
	g.lane[serUp].Materialize(u.onSerialized)
	for i := 0; i < g.lane[arrUp].Len(); i++ {
		u.inflight.Push(g.build(g.first[arrUp] + i))
	}
	g.lane[arrUp].Materialize(u.onArrive)
	f := g.grp
	if d := g.dst; d != nil {
		sw := u.sw
		for i := 0; i < g.lane[fwd].Len(); i++ {
			_, seq := g.lane[fwd].At(i)
			sw.insert(hop{pkt: g.build(g.first[fwd] + i), egress: d, seq: seq})
		}
		g.lane[fwd].Materialize(sw.onForward)
		if g.lane[serDown].Len() > 0 {
			d.cur, d.curQ = g.build(g.first[serDown]), g.turn(g.first[serDown]).dq
			d.curEnd, _ = g.lane[serDown].At(0)
		}
		g.lane[serDown].Materialize(d.onSerialized)
		for i := 0; i < g.lane[arrDown].Len(); i++ {
			d.inflight.Push(g.build(g.first[arrDown] + i))
		}
		g.lane[arrDown].Materialize(d.onArrive)
		d.claim = nil
	} else {
		f.open--
	}
	g.dst, g.on = nil, false
	for i, h := range f.live {
		if h == g {
			f.live = append(f.live[:i], f.live[i+1:]...)
			break
		}
	}
	f.changed()
}

// cut materializes the segments l takes part in, as source or as claimed
// downlink.
func (l *Link) cut() {
	if g := l.claim; g != nil {
		g.materialize()
	}
	if g := l.seg; g != nil && g.on {
		g.materialize()
	}
}

// yield materializes the segments that a packet of flow queued on l would
// disturb: one on the downlink l, whatever the packet, and one on the
// source l for a flow outside its rotation under RoundRobin. A cut claim
// leaves the downlink alone for a while.
func (l *Link) yield(flow uint32) {
	if g := l.claim; g != nil {
		g.materialize()
		l.backOff()
	}
	if g := l.seg; g != nil && g.on && l.disc == RoundRobin && !g.rotates(flow) {
		g.materialize()
	}
}

// rotates reports whether flow is one of the rotation's.
func (g *segment) rotates(flow uint32) bool {
	for i := range g.rot {
		if g.rot[i].q.id == flow {
			return true
		}
	}
	return false
}

// backOff leaves the downlink l alone for the next wait, which doubles,
// from 16 to 4096 MTU times: other sources cut a claim on it or kept a
// segment from claiming it.
func (l *Link) backOff() {
	l.wait = min(max(2*l.wait, 16*l.mtuSer), 4096*l.mtuSer)
	l.quiet = l.eng.Now() + l.wait
}

// port returns node's downlink, nil if it is not a port of the switch.
func (s *Switch) port(node int) *Link {
	if node < 0 || node >= len(s.ports) {
		return nil
	}
	return s.ports[node]
}

// claimable returns node's downlink if a segment from the uplink u could
// claim it: it is a port of the switch with a pool, healthy and up, its
// wire is fast enough that no MTU of a run will wait for it, and it is not
// being left alone (backOff).
func (s *Switch) claimable(node int, u *Link) *Link {
	d := s.port(node)
	if d == nil || d.pool == nil || d.perMTU || d.degrade != 0 || d.down ||
		d.mtuSer > u.mtuSer || (d.mtuSer == u.mtuSer && s.latency >= u.mtuSer) ||
		d.eng.Now() < d.quiet {
		return nil
	}
	return d
}
