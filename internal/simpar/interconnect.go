package simpar

import (
	"fmt"

	"resex/internal/cluster"
	"resex/internal/fabric"
	"resex/internal/hca"
	"resex/internal/sim"
)

// Interconnect joins per-site cluster testbeds — each on its own engine,
// each a simpar Host — into one fabric. Intra-site traffic stays entirely
// on the site's switch and engine; packets for nodes the local switch has
// never heard of ride the backbone: the switch's default route hands them
// to the coordinator, which delivers them to the destination site's
// downlink one backbone delay later. RC acks, the one responder→requester
// signal the single-engine wiring short-circuits as a direct peer call,
// take the same backbone path via hca.SetAckPath.
//
// The backbone delay is the run's lookahead: it is the minimum time any
// cross-site influence spends in flight, so every site may simulate a full
// delay's worth of virtual time without synchronizing. Intra-site delays
// (100 ns links, 200 ns switch) never constrain the window because they
// never cross an engine boundary — this is why the geo topology parallelizes
// so well: lookahead is the ~200 µs backbone, not the ~300 ns rack.
type Interconnect struct {
	co    *Coordinator
	delay sim.Time
	sites map[int]*site
}

type site struct {
	h  *Host
	ch *cluster.Host
}

// NewInterconnect creates a backbone with the given one-way site-to-site
// delay. The coordinator's lookahead must not exceed it — a window longer
// than the minimum in-flight time could deliver a message into a site's
// simulated past.
func NewInterconnect(co *Coordinator, delay sim.Time) *Interconnect {
	if delay < co.Lookahead() {
		panic(fmt.Sprintf("simpar: backbone delay %v below coordinator lookahead %v", delay, co.Lookahead()))
	}
	return &Interconnect{co: co, delay: delay, sites: make(map[int]*site)}
}

// AddSite registers one single-host testbed under its host's node id and
// wires both backbone directions: the site switch's default route outbound,
// the HCA ack path for the return leg. Returns the simpar Host so the
// caller can Send or inspect the engine. All sites must be added before the
// coordinator runs.
func (ic *Interconnect) AddSite(tb *cluster.Testbed, ch *cluster.Host) *Host {
	node := ch.Node
	if _, dup := ic.sites[node]; dup {
		panic(fmt.Sprintf("simpar: site %d already added", node))
	}
	h := ic.co.AddHost(node, tb.Eng)
	s := &site{h: h, ch: ch}
	ic.sites[node] = s

	// Outbound: a packet for a node not attached to this site's switch has
	// already paid the local uplink serialization + propagation and the
	// switch forwarding latency; the backbone adds its delay, then the
	// packet joins the destination site's downlink queue (preserving the
	// per-host ingress serialization model).
	tb.Switch.SetDefaultRoute(func(pkt *fabric.Packet) {
		dst := ic.sites[pkt.DstNode]
		if dst == nil {
			panic(fmt.Sprintf("simpar: packet for unknown site %d", pkt.DstNode))
		}
		h.Send(pkt.DstNode, tb.Eng.Now()+ic.delay, func() {
			dst.ch.Downlink.Send(pkt)
		})
	})

	// Return leg: sender-side RC completions travel back over the backbone
	// instead of being applied by a direct call into a peer HCA that may be
	// mid-window on another worker.
	ch.HCA.SetAckPath(func(srcNode int, ack hca.Ack) {
		src := ic.sites[srcNode]
		if src == nil {
			panic(fmt.Sprintf("simpar: ack for unknown site %d", srcNode))
		}
		h.Send(srcNode, tb.Eng.Now()+ic.delay, func() {
			src.ch.HCA.ApplyAck(ack)
		})
	})
	return h
}

// Delay returns the one-way backbone propagation delay.
func (ic *Interconnect) Delay() sim.Time { return ic.delay }

// Site returns the simpar Host registered for a node id, or nil.
func (ic *Interconnect) Site(node int) *Host {
	if s := ic.sites[node]; s != nil {
		return s.h
	}
	return nil
}
