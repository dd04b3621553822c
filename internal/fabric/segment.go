package fabric

import (
	"resex/internal/ring"
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

// segment carries the full-size MTUs of one train, which its source link
// serves back to back at the healthy rate, as credited engine events (see
// sim.Segment): no packet is built and no callback runs for them. It always
// covers the uplink's serialization and propagation. From the first MTU that
// reaches the switch while the destination downlink is free, it claims that
// downlink and covers the forward, the downlink's serialization and the
// arrival too. Until then each MTU enters the switch as a real packet, and
// a segment that cannot claim by its second MTU ends.
//
// Every credited stage applies to the links the effects the per-MTU path
// would, counters included, so Stats, FlowBytes and Queued are exact at any
// instant. materialize hands the state back to the per-MTU path, building
// the packets still on a wire, in propagation or in the switch; the link
// calls it when the run's premise breaks: another flow queues on the source
// under RoundRobin, any packet reaches the claimed downlink, or either link
// is degraded, flapped or paced. The run's last MTU, which may be short and
// which completes the message, always takes the per-MTU path.
//
// A segment's state belongs to its source link and is reused by the link's
// later segments; its lanes are a block of its group's (see group).
type segment struct {
	grp  *group
	base int // the index of lane[0] in the group
	lane [stages]*sim.Lane
	// first is the index of the MTU at the head of each lane; a lane holds
	// consecutive MTUs.
	first [stages]int

	src *Link
	tr  *Train
	q   *flowQueue // the flow on src
	dst *Link      // the claimed downlink, nil until claimed
	dq  *flowQueue // the flow on dst
	on  bool
	// start is the run's first MTU, next the next MTU to start serializing
	// on src and end the run's last MTU, which the per-MTU path sends.
	start, next, end int

	// misses counts the MTUs that reached the switch before the claim.
	misses int

	// Arrivals at the receiver: the first MTU and its arrival time, how
	// many have arrived and how many of those the pool was told of.
	recvFirst      int
	recvAt         sim.Time
	recv, reported int
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
	fails     int // failed observations since live last changed
	skip      int // anchors to pass before observing again
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

// startSegment starts a segment with the entry transmitNext is about to
// serve when a run of its train's MTUs is certain to go out back to back:
// the link is healthy, the entry is an unbuilt train of full-size MTUs
// whose flow is not paced, and no other flow is backlogged under
// RoundRobin (FIFO serves the entry whole anyway). The link must be a
// switch's uplink and the train's downlink claimable (see claimable): a
// segment that only covered the uplink would save too little. transmitNext
// checks the switch and the ring, the common rejects, before calling. It
// reports whether it started one; the link is then busy with the run's
// first MTU.
func (l *Link) startSegment() bool {
	if l.perMTU || l.degrade != 0 || l.pool != nil {
		return false
	}
	var queue *ring.Queue[entry]
	var q *flowQueue
	if l.disc == FIFO {
		queue = &l.fifo
	} else {
		if len(l.ring) != 1 {
			return false
		}
		q = l.ring[0]
		queue = &q.trains
	}
	if queue.Len() == 0 {
		return false
	}
	e := queue.Front()
	tr := e.tr
	if e.pkt != nil || tr == nil || tr.MTU != DefaultMTU || int(e.end) != tr.MTUs ||
		tr.MTUs-1-int(e.next) < minSegment {
		return false
	}
	if q == nil {
		q = l.flow(tr.Template.Flow)
	}
	if q.limit > 0 || l.sw.claimable(tr.Template.DstNode, l) == nil {
		return false
	}
	g := l.seg
	if g == nil {
		g = newSegment(l)
		l.seg = g
	}
	a := int(e.next)
	g.tr, g.q, g.dst, g.dq, g.on = tr, q, nil, nil, true
	g.start, g.next, g.end = a, a+1, tr.MTUs-1
	g.first = [stages]int{serUp: a, arrUp: a}
	g.recv, g.reported, g.misses = 0, 0, 0
	f := g.grp
	f.live = append(f.live, g)
	f.open++
	f.changed()
	l.busy = true
	l.curQ = q // admit reads it as the per-MTU path would leave it
	if l.disc == RoundRobin {
		l.rrNext = 1 // next() took from the ring's only flow, which stays
	}
	g.startUp()
	return true
}

// changed forgets the group's period after its live segments changed.
func (f *group) changed() {
	f.observing, f.learned, f.fails, f.skip = false, false, 0, 0
	f.anchor = -1
	if f.open == 0 && len(f.live) > 0 {
		f.anchor = f.live[0].base + serUp
	}
}

// startUp puts MTU next-1 on the source's wire.
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
// propagating and the next MTU starts serializing. After the run's last
// full MTU it hands the link back to the per-MTU path, which sends the
// train's last MTU, and reports false.
func (g *segment) serializedUp() bool {
	u := g.src
	u.stats.Packets++
	u.stats.Bytes += DefaultMTU
	g.q.bytes += DefaultMTU
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
	if u.disc == RoundRobin {
		u.rrNext = 1
	}
	g.startUp()
	return true
}

// arrivedUp is Link.arrive for an MTU of the run: it reaches the switch. A
// segment that holds the downlink forwards it as a credited event. One that
// does not tries to claim the downlink now, and failing that hands the
// switch a real packet and reports false. The first miss may be the wire
// finishing the previous train; a second means the downlink serves other
// sources, so the segment ends and the downlink is left alone for a while.
func (g *segment) arrivedUp() bool {
	k := g.first[arrUp]
	g.first[arrUp]++
	if g.dst == nil && !g.claim(k) {
		g.src.deliver(g.build(k))
		if g.misses++; g.misses == 2 {
			if d := g.src.sw.port(g.tr.Template.DstNode); d != nil {
				d.backOff()
			}
			g.materialize()
		}
		return false
	}
	g.grp.sched(g.base+fwd, g.src.sw.latency)
	return true
}

// claim takes the destination downlink for the run from MTU k on, which is
// reaching the switch now, if it is claimable and nothing else can touch
// it before k's forward: no other segment holds it, nothing waits on it or
// in the switch for it, and the packet on its wire finishes by then.
func (g *segment) claim(k int) bool {
	sw := g.src.sw
	d := sw.claimable(g.tr.Template.DstNode, g.src)
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
	flow := g.tr.Template.Flow
	if q, ok := d.flows[flow]; ok && q.limit > 0 {
		return false
	}
	for i := 0; i < sw.pending.Len(); i++ {
		if sw.pending.At(i).egress == d {
			return false
		}
	}
	d.claim = g
	g.dst, g.dq = d, d.flow(flow)
	g.first[fwd], g.first[serDown], g.first[arrDown] = k, k, k
	g.recvFirst = k
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
	g.dq.bytes += DefaultMTU
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

// flush tells the downlink's pool of the arrivals it has not heard of. They
// are consecutive MTUs one source serialization apart.
func (g *segment) flush() {
	if n := g.recv - g.reported; n > 0 {
		every := g.src.mtuSer
		g.dst.pool.ReceiveRun(g.tr, g.recvFirst+g.reported, n, g.recvAt+sim.Time(g.reported)*every, every)
		g.reported = g.recv
	}
}

// build returns MTU k of the run as the per-MTU path builds it.
func (g *segment) build(k int) *Packet {
	tr := g.tr
	pkt := tr.New()
	*pkt = tr.Template
	pkt.Index, pkt.Bytes = k, tr.MTU
	return pkt
}

// materialize ends the segment: every MTU it holds becomes the packet the
// per-MTU path would have at this instant, on the wire, in propagation or
// in the switch, and every held event an engine event with its key.
func (g *segment) materialize() {
	g.flush()
	u := g.src
	if u.disc == FIFO {
		u.fifo.Front().next = int32(g.next)
	} else {
		g.q.trains.Front().next = int32(g.next)
	}
	u.cur, u.curQ = nil, nil
	if g.lane[serUp].Len() > 0 {
		u.cur, u.curQ = g.build(g.next-1), g.q
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
			d.cur, d.curQ = g.build(g.first[serDown]), g.dq
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
	g.dst, g.dq, g.on = nil, nil, false
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
// source l for another flow under RoundRobin. A cut claim leaves the
// downlink alone for a while.
func (l *Link) yield(flow uint32) {
	if g := l.claim; g != nil {
		g.materialize()
		l.backOff()
	}
	if g := l.seg; g != nil && g.on && l.disc == RoundRobin && flow != g.tr.Template.Flow {
		g.materialize()
	}
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
