package fabric

import "resex/internal/sim"

// maxHeld bounds the events a group holds at an anchor for its period to
// be detected: a longer pipeline is credited event by event.
const maxHeld = 48

// heldSet is what a group holds at an anchor, in (at, seq) order: each
// event's lane and its time after the anchor.
type heldSet struct {
	n    int
	lane [maxHeld]int32
	off  [maxHeld]sim.Time
}

// pattern is one period of a group whose live segments have all claimed
// their downlinks, from an anchor, the instant its next event is the first
// live segment's uplink serialization, to the next anchor: the events held
// at the anchor, each lane's credit, and the events the period scheduled,
// in order. A period repeats exactly when every live lane is credited and
// scheduled once and the next anchor, one uplink serialization later,
// holds the same events at the same offsets. From then on every anchor
// does, until the live segments change: the group's state at an anchor is
// all its next period depends on, and the seq gaps other events leave do
// not reorder its own events.
type pattern struct {
	held    heldSet
	events  int // credits, and schedules, in one period
	credits int
	ccount  []uint8    // by lane: credits in the period
	coff    []sim.Time // by lane: its credit's time after the anchor
	maxCoff sim.Time
	scheds  int
	slane   []int32    // the period's schedules in order: the lane
	soff    []sim.Time // and the event's time after the anchor

	// Derived once the pattern repeats: each lane's place in the schedule
	// order, and for each held event, lane by lane, how many periods
	// before its lane's place in this one it was scheduled.
	place  []uint64
	lag    [maxHeld]uint64
	maxLag uint64
}

// sched schedules the next event of lane li, d from now, recording it
// while a period is being observed.
func (f *group) sched(li int, d sim.Time) {
	if f.observing {
		p := &f.obs
		if p.scheds == p.events {
			f.observing = false
		} else {
			p.slane[p.scheds], p.soff[p.scheds] = int32(li), f.eng.Now()+d-f.obsAt
			p.scheds++
		}
	}
	f.lanes[li].After(d)
}

// observe records the credit of lane li at t in the observed period.
func (f *group) observe(li int, t sim.Time) {
	p := &f.obs
	if p.credits == p.events {
		f.observing = false
		return
	}
	off := t - f.obsAt
	p.credits++
	p.ccount[li]++
	p.coff[li] = off
	p.maxCoff = max(p.maxCoff, off)
}

// collect fills h with the events the live segments hold, offset from t.
// It reports false when there are more than maxHeld.
func (f *group) collect(t sim.Time, h *heldSet) bool {
	var pos [maxHeld]int // by lane of the live segments, in order
	m := stages * len(f.live)
	if m > maxHeld {
		return false
	}
	for {
		best, bAt, bSeq := -1, sim.Time(0), uint64(0)
		for j := 0; j < m; j++ {
			ln := f.live[j/stages].lane[j%stages]
			if pos[j] < ln.Len() {
				at, seq := ln.At(pos[j])
				if best < 0 || at < bAt || (at == bAt && seq < bSeq) {
					best, bAt, bSeq = j, at, seq
				}
			}
		}
		if best < 0 {
			return true
		}
		if h.n == maxHeld {
			return false
		}
		h.lane[h.n], h.off[h.n] = int32(f.live[best/stages].base+best%stages), bAt-t
		h.n++
		pos[best]++
	}
}

// anchorAt is reached at t, before the anchor lane's credit, while no
// pattern is known. If the period observed since the previous anchor
// repeats, it becomes the pattern. Otherwise a new observation starts
// here: at once for the first three failures, which a pipeline still
// filling after a change explains, then after a pause that doubles with
// each failure, up to 63 anchors.
func (f *group) anchorAt(t sim.Time) {
	if f.skip > 0 {
		f.skip--
		return
	}
	var cur heldSet
	ok := f.collect(t, &cur)
	p := &f.obs
	if f.observing {
		if ok && t-f.obsAt == f.live[0].src.mtuSer && p.credits == p.events &&
			p.scheds == p.events && cur == p.held && f.derive() {
			f.observing, f.learned = false, true
			return
		}
		f.observing = false
		f.fails++
		if f.skip = 1<<min(max(f.fails-3, 0), 6) - 1; f.skip > 0 {
			return
		}
	}
	if !ok {
		return
	}
	n := len(f.lanes)
	if len(p.ccount) < n {
		p.ccount, p.coff, p.place = make([]uint8, n), make([]sim.Time, n), make([]uint64, n)
		p.slane, p.soff = make([]int32, n), make([]sim.Time, n)
	}
	clear(p.ccount)
	p.held, p.events, p.credits, p.scheds, p.maxCoff = cur, stages*len(f.live), 0, 0, 0
	f.obsAt, f.observing = t, true
}

// derive checks that the observed period credited and scheduled every live
// lane once, and fills its schedule places and lags. It reports false if a
// held event does not sit whole periods, at least one, before its lane's
// place.
func (f *group) derive() bool {
	p := &f.obs
	s := f.live[0].src.mtuSer
	const unset = ^uint64(0)
	for _, g := range f.live {
		for x := 0; x < stages; x++ {
			if p.ccount[g.base+x] != 1 {
				return false
			}
			p.place[g.base+x] = unset
		}
	}
	for j, li := range p.slane[:p.scheds] {
		if p.place[li] != unset {
			return false
		}
		p.place[li] = uint64(j)
	}
	k := 0
	p.maxLag = 0
	for _, g := range f.live {
		for x := 0; x < stages; x++ {
			li := int32(g.base + x)
			for i := 0; i < p.held.n; i++ {
				if p.held.lane[i] != li {
					continue
				}
				d := p.soff[p.place[li]] - p.held.off[i]
				if d <= 0 || d%s != 0 {
					return false
				}
				p.lag[k] = uint64(d / s)
				p.maxLag = max(p.maxLag, p.lag[k])
				k++
			}
		}
	}
	return true
}

// jump credits, from the anchor at t, as many whole periods of the learned
// pattern as end before the bound and the limit, every live run's last full
// MTU, the step hook's next sampled step and a pool margin allow, in
// closed form. Each period moves one MTU through every stage of every live
// segment; the events held afterwards are those held now, whole periods
// later, and each takes the seq of its place in the periods' schedule
// order. It reports whether it credited any.
func (f *group) jump(t, boundAt, limit sim.Time) bool {
	p := &f.obs
	s := f.live[0].src.mtuSer
	last := limit // the last instant a credited event may have
	if boundAt-1 < last {
		last = boundAt - 1
	}
	first := t + p.maxCoff
	if first > last {
		return false
	}
	n := uint64((last-first)/s) + 1
	for _, g := range f.live {
		n = min(n, uint64(g.end-g.next))
	}
	n = min(n, f.seg.Room(uint64(p.events)))
	if n == 0 || n < p.maxLag {
		return false
	}
	// Every held event was scheduled lag whole periods before its lane's
	// place in this one; it is rekeyed to the event of that place in
	// period n-lag of the jump.
	base, events := f.seg.Seq(), uint64(p.events)
	shift := sim.Time(n) * s
	k := 0
	for _, g := range f.live {
		for x := 0; x < stages; x++ {
			ln := g.lane[x]
			for i := 0; i < ln.Len(); i++ {
				at, _ := ln.At(i)
				ln.Rekey(i, at+shift, base+events*(n-p.lag[k])+p.place[g.base+x]+1)
				k++
			}
		}
	}
	for _, g := range f.live {
		g.repeat(n, t, p)
	}
	f.seg.CreditPeriods(n, events, t+shift-s+p.maxCoff)
	return true
}

// repeat applies to g's links and counters the n periods from the anchor
// at t that jump credits: one MTU through every stage each.
func (g *segment) repeat(n uint64, t sim.Time, p *pattern) {
	u, d := g.src, g.dst
	mtus := int64(n)
	u.stats.Packets += mtus
	u.stats.Bytes += mtus * DefaultMTU
	u.stats.BusyTime += sim.Time(n) * u.mtuSer
	g.q.bytes += mtus * DefaultMTU
	u.queued -= int(n)
	d.stats.Packets += mtus
	d.stats.Bytes += mtus * DefaultMTU
	d.stats.BusyTime += sim.Time(n) * d.mtuSer
	g.dq.bytes += mtus * DefaultMTU
	d.stats.MaxQueued = max(d.stats.MaxQueued, 1)
	if d.disc == RoundRobin {
		d.rrNext = 0
	}
	if g.recv == 0 {
		g.recvAt = t + p.coff[g.base+arrDown]
	}
	g.unread()
	g.recv += int(n)
	for x := range g.first {
		g.first[x] += int(n)
	}
	g.next += int(n)
}
