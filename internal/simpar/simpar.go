// Package simpar parallelizes a single simulation run across hosts.
//
// The serial engine (internal/sim) executes one event at a time; a fleet
// run is therefore strictly sequential no matter how many cores the machine
// has. simpar exploits the structure the rest of this codebase already
// enforces: each host owns its Xen scheduler, HCA, links, ResEx manager and
// IBMon agent, so the overwhelming majority of events are host-local, and
// the only way one host influences another is a fabric message with a
// propagation delay bounded below by the interconnect's lookahead.
//
// The design is conservative (no rollback, no speculation):
//
//   - Every host runs on its own sim.Engine. Hosts are partitioned into S
//     logical shards; par.For runs a window's shards concurrently.
//   - Time advances in windows [T, E) with E = min(T+lookahead, next global
//     boundary, horizon). Within a window each host executes only its own
//     events — by the lookahead contract nothing generated elsewhere during
//     the window can arrive before E.
//   - Cross-host interaction goes exclusively through Host.Send, which
//     appends to the sending host's outbox. At the window barrier the
//     coordinator merges every outbox into the destination hosts' inboxes.
//   - Each inbox is a min-heap keyed on (At, Src, Seq) — delivery time,
//     source host id, per-source send counter. A host's run loop drains
//     messages exactly at their timestamp, after its own events at that
//     instant, in key order.
//
// That canonical (At, Src, Seq) discipline is what makes the output
// byte-identical at any shard count and any host→shard map: message
// delivery order depends only on the key, never on which worker ran the
// sender or when the merge happened, and window boundaries fall at the same
// virtual times regardless of S. Running with one shard on one worker *is*
// the serial semantics; running with N is the same computation faster.
//
// Global boundaries (manager epochs that span hosts, fleet telemetry,
// snapshot capture, migration decisions) register with At: the window end
// is capped so the callback fires at the barrier, on the coordinator's
// goroutine, with every host quiescent just before the boundary instant.
// Boundaries consume no engine seq numbers — like sim.Engine.Breakpoint,
// arming one cannot perturb event ordering, and per-engine breakpoints
// armed by the snapshot plan keep working unchanged inside windows.
package simpar

import (
	"fmt"
	"sort"

	"resex/internal/par"
	"resex/internal/sim"
)

// Message is one cross-host delivery: fn runs in the destination host's
// engine context at exactly At. The (At, Src, Seq) triple is the canonical
// merge key; Seq is per-source and assigned by Send in send order, so two
// messages from one host preserve FIFO order at equal delivery times, and
// messages from different hosts at the same instant order by source id —
// the same-instant semantics the serial (one-shard) run defines.
type Message struct {
	At       sim.Time
	Src, Dst int
	Seq      uint64
	fn       func()
}

// msgLess is the canonical cross-host delivery order.
func msgLess(a, b Message) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// msgHeap is a binary min-heap over the canonical key. Pop order — not
// insertion order — defines delivery, which is why merge timing (and
// therefore shard count) cannot leak into execution.
type msgHeap []Message

func (h *msgHeap) push(m Message) {
	*h = append(*h, m)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *msgHeap) pop() Message {
	old := *h
	m := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = Message{}
	*h = old[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && msgLess(old[c+1], old[c]) {
			c++
		}
		if !msgLess(old[c], old[i]) {
			break
		}
		old[i], old[c] = old[c], old[i]
		i = c
	}
	return m
}

// Host is one shard-schedulable simulation unit: an engine plus the
// coordinator plumbing (inbox, outbox, send counter). Everything the host
// simulates — hypervisor, HCA, links, manager, monitor, applications —
// must be built on Eng and must never touch another host's objects except
// through Send.
type Host struct {
	id    int
	eng   *sim.Engine
	co    *Coordinator
	seq   uint64
	inbox msgHeap
	out   []Message
}

// ID returns the host id (the cluster node id).
func (h *Host) ID() int { return h.id }

// Engine returns the host's private engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Send schedules fn to run on dst's engine at virtual time at. It is the
// only legal cross-host channel. Inside a window, at must be at or past the
// window's end (the lookahead contract) — violating it panics, because a
// too-early delivery could land on a host that already simulated past at.
// From a boundary callback or before the run starts, any at not in the
// destination's past is accepted: every host is quiescent at a barrier, so
// the message merges immediately.
func (h *Host) Send(dst int, at sim.Time, fn func()) {
	h.co.send(h, dst, at, fn)
}

// phase tracks what the coordinator is doing, which determines how Send
// validates and routes.
type phase int

const (
	phaseIdle phase = iota
	phaseWindow
	phaseBoundary
)

// boundary is a global one-shot callback, ordered by (at, arm order).
type boundary struct {
	at sim.Time
	fn func()
}

// Stats are the coordinator's deterministic run counters. They depend only
// on the virtual-time structure of the run (lookahead, boundaries, message
// traffic), never on shard count, worker count, or wall-clock, so they are
// safe to print on experiment stdout under the determinism gates.
type Stats struct {
	// Windows is the number of conservative windows executed.
	Windows uint64
	// Boundaries is the number of global boundary callbacks fired.
	Boundaries uint64
	// Messages is the number of cross-host messages merged.
	Messages uint64
	// MaxInbox is the peak pending-message count on any one host.
	MaxInbox int
}

// Config parameterizes a Coordinator.
type Config struct {
	// Lookahead is the minimum cross-host propagation delay the
	// interconnect guarantees: no message sent during a window may be
	// delivered before the window ends. Must be positive.
	Lookahead sim.Time
	// Shards is the number of logical host groups. Values below 1 or
	// above the host count are clamped at Seal time. Shard membership is
	// a wall-clock concern only — output is byte-identical for any value.
	Shards int
	// Workers bounds the goroutines executing shards within one window.
	// 1 or less runs every shard on the caller's goroutine.
	Workers int
	// ShardOf overrides the default contiguous block partition with an
	// explicit host→shard map (values are clamped into [0, Shards)). The
	// determinism fuzz tests drive this with random maps.
	ShardOf func(hostID int) int
}

// Coordinator owns the sharded run: the host set, the window/barrier loop
// and the global boundary queue.
type Coordinator struct {
	cfg    Config
	hosts  []*Host // ascending id
	byID   map[int]*Host
	shards [][]*Host
	sealed bool
	// runShards is c.runShard, bound once rather than per window.
	runShards func(s int)

	now    sim.Time // completed horizon: every event with at < now has run
	curEnd sim.Time // end of the window in flight (valid in phaseWindow)
	ph     phase
	bounds []boundary
	stats  Stats
}

// New creates a coordinator. Lookahead must be positive.
func New(cfg Config) *Coordinator {
	if cfg.Lookahead <= 0 {
		panic("simpar: Config.Lookahead must be positive")
	}
	return &Coordinator{cfg: cfg, byID: make(map[int]*Host)}
}

// AddHost registers a host (with its private engine) under a unique id.
// All hosts must be added before the first Run/RunUntil.
func (c *Coordinator) AddHost(id int, eng *sim.Engine) *Host {
	if c.sealed {
		panic("simpar: AddHost after the run started")
	}
	if _, dup := c.byID[id]; dup {
		panic(fmt.Sprintf("simpar: host %d already added", id))
	}
	h := &Host{id: id, eng: eng, co: c}
	c.byID[id] = h
	c.hosts = append(c.hosts, h)
	return h
}

// Host returns the registered host with the given id, or nil.
func (c *Coordinator) Host(id int) *Host { return c.byID[id] }

// Hosts returns the registered hosts in ascending id order (sealing the
// order on first use).
func (c *Coordinator) Hosts() []*Host {
	c.sortHosts()
	return c.hosts
}

// Lookahead returns the configured cross-host lookahead.
func (c *Coordinator) Lookahead() sim.Time { return c.cfg.Lookahead }

// Now returns the completed horizon: every event strictly before it has
// executed on every host.
func (c *Coordinator) Now() sim.Time { return c.now }

// Stats returns the deterministic run counters so far.
func (c *Coordinator) Stats() Stats { return c.stats }

// Steps sums the executed-event counters of every host engine — the
// sharded analogue of sim.Engine.Steps, and just as deterministic.
func (c *Coordinator) Steps() uint64 {
	var n uint64
	for _, h := range c.Hosts() {
		n += h.eng.Steps()
	}
	return n
}

// At registers fn to run once at the global barrier for virtual time at:
// after every event strictly before at has executed on every host, before
// any event at at runs. Callbacks at the same instant fire in arm order,
// on the coordinator's goroutine, with every host quiescent — they may
// inspect any host, schedule on any host's engine, and Send with immediate
// merge. Arming consumes no engine seq number on any host, so a run with a
// boundary armed executes event-for-event like one without (only the
// window partition changes, which the merge discipline makes invisible).
func (c *Coordinator) At(at sim.Time, fn func()) {
	if at < c.now {
		panic(fmt.Sprintf("simpar: boundary at %v before horizon %v", at, c.now))
	}
	i := len(c.bounds)
	for i > 0 && c.bounds[i-1].at > at {
		i--
	}
	c.bounds = append(c.bounds, boundary{})
	copy(c.bounds[i+1:], c.bounds[i:])
	c.bounds[i] = boundary{at: at, fn: fn}
}

// Every registers fn at now+d, now+2d, ... — a recurring global boundary
// (manager epochs, telemetry ticks). Stop it by returning false from fn.
func (c *Coordinator) Every(d sim.Time, fn func() bool) {
	if d <= 0 {
		panic("simpar: Every requires a positive period")
	}
	var arm func(at sim.Time)
	arm = func(at sim.Time) {
		c.At(at, func() {
			if fn() {
				arm(at + d)
			}
		})
	}
	arm(c.now + d)
}

// sortHosts freezes host order (ascending id).
func (c *Coordinator) sortHosts() {
	if c.sealed {
		return
	}
	sort.Slice(c.hosts, func(i, j int) bool { return c.hosts[i].id < c.hosts[j].id })
}

// seal computes the shard partition.
func (c *Coordinator) seal() {
	if c.sealed {
		return
	}
	c.sortHosts()
	c.sealed = true
	n := len(c.hosts)
	s := c.cfg.Shards
	if s < 1 {
		s = 1
	}
	if s > n && n > 0 {
		s = n
	}
	c.shards = make([][]*Host, s)
	for i, h := range c.hosts {
		var sh int
		if c.cfg.ShardOf != nil {
			sh = c.cfg.ShardOf(h.id)
			if sh < 0 {
				sh = 0
			}
			if sh >= s {
				sh = s - 1
			}
		} else {
			sh = i * s / n
		}
		c.shards[sh] = append(c.shards[sh], h)
	}
	c.runShards = c.runShard
}

// runShard advances every host of shard s to the current window end. A
// panic inside a host event is re-raised naming the host.
func (c *Coordinator) runShard(s int) {
	cur := -1
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Errorf("simpar: host %d: %v", cur, r))
		}
	}()
	for _, h := range c.shards[s] {
		cur = h.id
		h.runWindow(c.curEnd)
	}
}

// runWindow advances one host to the window end: every own event with
// at < end runs, and every merged message is delivered at exactly its
// timestamp — after the host's own events at that instant, in canonical
// key order. Message handlers run outside the engine's event dispatch, so
// delivery consumes no seq number; anything a handler schedules gets seqs
// in a position determined solely by the canonical order, never by shard
// layout or window partition.
func (h *Host) runWindow(end sim.Time) {
	for {
		if len(h.inbox) == 0 || h.inbox[0].At >= end {
			h.eng.RunUntil(end - 1)
			return
		}
		at := h.inbox[0].At
		h.eng.RunUntil(at)
		for len(h.inbox) > 0 && h.inbox[0].At == at {
			m := h.inbox.pop()
			m.fn()
		}
	}
}

// send validates and routes one cross-host message (see Host.Send).
func (c *Coordinator) send(src *Host, dst int, at sim.Time, fn func()) {
	d, ok := c.byID[dst]
	if !ok {
		panic(fmt.Sprintf("simpar: send to unknown host %d", dst))
	}
	src.seq++
	m := Message{At: at, Src: src.id, Dst: dst, Seq: src.seq, fn: fn}
	switch c.ph {
	case phaseWindow:
		if at < c.curEnd {
			panic(fmt.Sprintf(
				"simpar: host %d sent a message for %v inside window ending %v — interconnect delay below the declared lookahead %v",
				src.id, at, c.curEnd, c.cfg.Lookahead))
		}
		src.out = append(src.out, m)
	default:
		// Barrier or pre-run: every host is quiescent, merge immediately.
		if at < c.now {
			panic(fmt.Sprintf("simpar: send for %v before horizon %v", at, c.now))
		}
		c.deliver(d, m)
	}
}

// deliver merges one message into its destination inbox.
func (c *Coordinator) deliver(d *Host, m Message) {
	d.inbox.push(m)
	c.stats.Messages++
	if len(d.inbox) > c.stats.MaxInbox {
		c.stats.MaxInbox = len(d.inbox)
	}
}

// fireBounds runs every boundary armed for exactly the current horizon.
func (c *Coordinator) fireBounds() {
	for len(c.bounds) > 0 && c.bounds[0].at == c.now {
		b := c.bounds[0]
		copy(c.bounds, c.bounds[1:])
		c.bounds[len(c.bounds)-1] = boundary{}
		c.bounds = c.bounds[:len(c.bounds)-1]
		c.ph = phaseBoundary
		c.stats.Boundaries++
		b.fn()
		c.ph = phaseIdle
	}
}

// RunUntil executes every event with timestamp <= t across all hosts, then
// leaves each host's clock at t — the sharded mirror of
// sim.Engine.RunUntil. Calls may be chained (warmup, then measurement).
func (c *Coordinator) RunUntil(t sim.Time) {
	c.run(t + 1)
}

// run advances the fleet so every event with at < until has executed.
func (c *Coordinator) run(until sim.Time) {
	c.seal()
	c.fireBounds()
	for c.now < until {
		end := c.now + c.cfg.Lookahead
		if end > until {
			end = until
		}
		if len(c.bounds) > 0 && c.bounds[0].at < end {
			end = c.bounds[0].at
		}
		c.curEnd = end
		c.ph = phaseWindow
		c.stats.Windows++
		par.For(len(c.shards), c.cfg.Workers, c.runShards)
		c.ph = phaseIdle
		// Barrier: merge every outbox. Host order is fixed (ascending id)
		// but irrelevant — the inbox heap orders by the canonical key.
		for _, h := range c.hosts {
			for _, m := range h.out {
				c.deliver(c.byID[m.Dst], m)
			}
			h.out = h.out[:0]
		}
		c.now = end
		c.fireBounds()
	}
}

// Shutdown kills every host engine's live processes (end of run).
func (c *Coordinator) Shutdown() {
	for _, h := range c.Hosts() {
		h.eng.Shutdown()
	}
}
