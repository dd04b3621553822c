// Package hca models a VMM-bypass InfiniBand host channel adapter with a
// verbs-like programming interface: protection domains, memory regions with
// a translation & protection table (TPT), queue pairs, completion queues,
// UAR doorbell pages, and a DMA engine that segments messages into MTUs and
// arbitrates them onto the host's fabric uplink.
//
// Fidelity requirements inherited from the paper:
//
//   - VMM bypass: guests drive the device directly. No hypervisor code runs
//     on the data path, and crucially, the device writes its completion
//     queue entries (CQEs) and doorbell records as plain bytes into guest
//     memory. IBMon reads those bytes back out via introspection — there is
//     no side channel from the simulator to the monitor.
//   - Offload: data movement consumes no guest CPU. A VM's only CPU costs
//     are posting work requests and polling CQs, which the application
//     layer charges to its VCPU. This is why capping a VM's CPU throttles
//     its I/O *rate* (it can't post/poll) without touching in-flight DMA —
//     the exact lever ResEx exploits.
//   - MTU granularity: messages are segmented into MTU-sized packets that
//     share the host uplink with every other QP on the host (round-robin
//     arbitration in the fabric package). A 2 MB writer therefore stretches
//     a collocated 64 KB flow — the paper's interference.
//
// Supported operations: SEND and RECV, the verbs whose completions IBMon
// reads. Reliable-connected semantics: per-QP ordering, a SEND that arrives
// before a receive buffer is posted waits for one (RNR), and sender
// completions follow the remote delivery's acknowledgement.
package hca

import (
	"errors"
	"fmt"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/ring"
	"resex/internal/sim"
)

// Errors returned by verbs calls.
var (
	ErrSQFull      = errors.New("hca: send queue full")
	ErrRQFull      = errors.New("hca: receive queue full")
	ErrNotRTS      = errors.New("hca: QP not connected (not in RTS)")
	ErrBadLKey     = errors.New("hca: local key violation")
	ErrMRTooLarge  = errors.New("hca: registration exceeds space")
	ErrConnected   = errors.New("hca: QP already connected")
	ErrPayloadSize = errors.New("hca: payload longer than message length")
)

// Access flags for memory registration.
type Access uint32

// Access rights, OR-able. A receive buffer needs AccessLocalWrite.
const (
	AccessLocalWrite Access = 1 << iota
)

// The adapter's fixed latencies; messages are segmented into
// fabric.DefaultMTU packets (the paper's 1 KB MTU).
const (
	// ProcDelay is the doorbell-to-wire latency per work request (WQE
	// fetch, TPT lookup).
	ProcDelay = 300 * sim.Nanosecond
	// AckLatency is the delay between last-MTU delivery at the responder
	// and the sender-side completion (RC ack).
	AckLatency = 1500 * sim.Nanosecond
)

// Config parameterizes an HCA.
type Config struct {
	// Node is this host's fabric node id.
	Node int
}

// HCA is one host channel adapter.
type HCA struct {
	eng     *sim.Engine
	cfg     Config
	name    string
	uplink  *fabric.Link
	peer    func(node int) *HCA
	ackPath func(srcNode int, ack Ack)

	tpt     map[uint32]*MR // by lkey
	qps     map[uint32]*QP
	pds     []*PD // allocation order, for deterministic device-wide sweeps
	nextKey uint32
	nextQPN uint32
	nextCQN uint32
	nextPD  uint32

	// free holds zeroed packets for the links to build trains and runs
	// from; see newPacket, RunPacket and ReleasePacket.
	free []*fabric.Packet

	// freeMsgs holds zeroed messages for processHead; see newMsg and
	// freeMsg.
	freeMsgs []*wireMsg

	// acks holds sender completions waiting out AckLatency, oldest first.
	acks ring.Queue[pendingAck]

	// The engine's queues for WQE processing (ProcDelay) and acks
	// (AckLatency): both delays are constants.
	procQ, ackQ *sim.Delay

	// Callbacks bound once, so trains and acks allocate no closure.
	onNewPacket func() *fabric.Packet
	onAck       func()

	// Stats.
	msgsSent  int64
	bytesSent int64
}

// packetSlabSize is how many packets one free-list refill allocates at once.
// Links build a packet only when it starts serializing, so an HCA's live
// packets are the few on the wire, not the MTUs queued behind them.
const packetSlabSize = 32

// maxFreePackets bounds the free list, as the event pool is bounded: a
// burst that briefly had many MTUs in flight does not pin that memory for
// the rest of the run.
const maxFreePackets = 1 << 15

// newPacket returns a zeroed packet from the free list, refilling it a slab
// at a time.
func (h *HCA) newPacket() *fabric.Packet {
	if n := len(h.free); n > 0 {
		pkt := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		return pkt
	}
	slab := make([]fabric.Packet, packetSlabSize)
	for i := 1; i < packetSlabSize; i++ {
		h.free = append(h.free, &slab[i])
	}
	return &slab[0]
}

// ReleasePacket zeroes a packet and returns it to a free list: a delivered
// packet (see Deliver), or one a downlink folded into a run of its train
// (see fabric.Link.Send). Without an ack path the packet goes back to the
// HCA that sent it, found through its message rather than the peer
// resolver. With an ack path installed the sender may run on another engine
// and goroutine, so — as completeSender does for acks — the packet stays
// with this, the receiving, HCA instead. Every field is read before the
// packet is zeroed.
func (h *HCA) ReleasePacket(pkt *fabric.Packet) {
	owner := h
	if h.ackPath == nil {
		owner = pkt.Meta.(*wireMsg).src
	}
	*pkt = fabric.Packet{}
	if len(owner.free) < maxFreePackets {
		owner.free = append(owner.free, pkt)
	}
}

// RunPacket returns a zeroed packet for this HCA's downlink to rebuild an
// MTU of tr into. It comes from the free list ReleasePacket returns the
// packet to once it is delivered: the sender's (tr.New) without an ack
// path, this HCA's with one, so no HCA's list is touched from another
// engine's goroutine.
func (h *HCA) RunPacket(tr *fabric.Train) *fabric.Packet {
	if h.ackPath != nil {
		return h.newPacket()
	}
	return tr.New()
}

// ReceiveRun takes n MTUs of tr that a downlink segment carried to this
// HCA without building their packets: it counts them delivered, as Deliver
// would count n non-final packets. A segment never covers the last MTU,
// which completes the message.
func (h *HCA) ReceiveRun(tr *fabric.Train, first, n int, at, every sim.Time) {
	tr.Template.Meta.(*wireMsg).got += n
}

// maxFreeMsgs bounds the message free list like maxFreePackets. With an ack
// path installed, messages collect at the HCA that received them, so a
// one-way flow would otherwise grow its receiver's list without limit.
const maxFreeMsgs = 1 << 10

// newMsg returns a zeroed message from the free list, or a fresh one.
func (h *HCA) newMsg() *wireMsg {
	if n := len(h.freeMsgs); n > 0 {
		m := h.freeMsgs[n-1]
		h.freeMsgs[n-1] = nil
		h.freeMsgs = h.freeMsgs[:n-1]
		return m
	}
	return new(wireMsg)
}

// freeMsg zeroes a finished message and returns it to a free list. A
// message is finished once its last MTU has been delivered and every field
// the sender completion needs has been read. Both links have stopped
// reading its train by then: the uplink when it built the last packet, and
// the receiver's downlink, which rebuilds the MTUs of a queued run from the
// train, when the last packet left it. Packets of one message share a flow
// and leave a link in order, so none of the message's MTUs is still queued
// once the last one is delivered. As ReleasePacket does for packets, the
// message goes back to its sender's list, or, with an ack path installed,
// stays with this, the receiving, HCA, because the sender may run on
// another engine and goroutine.
func (h *HCA) freeMsg(m *wireMsg) {
	owner := h
	if h.ackPath == nil {
		owner = m.src
	}
	*m = wireMsg{}
	if len(owner.freeMsgs) < maxFreeMsgs {
		owner.freeMsgs = append(owner.freeMsgs, m)
	}
}

// pendingAck is a sender completion waiting out the RC ack latency.
type pendingAck struct {
	src *HCA
	ack Ack
}

// New creates an HCA. Wire it with SetUplink and SetPeerResolver before use.
func New(eng *sim.Engine, cfg Config) *HCA {
	h := &HCA{
		eng:     eng,
		cfg:     cfg,
		name:    fmt.Sprintf("hca%d", cfg.Node),
		tpt:     make(map[uint32]*MR),
		qps:     make(map[uint32]*QP),
		nextKey: 0x1000,
		nextQPN: 0x40,
		nextCQN: 1,
		nextPD:  1,
		procQ:   eng.Delay(ProcDelay),
		ackQ:    eng.Delay(AckLatency),
	}
	h.onNewPacket, h.onAck = h.newPacket, h.ack
	return h
}

// Engine returns the simulation engine.
func (h *HCA) Engine() *sim.Engine { return h.eng }

// Node returns the host's fabric node id.
func (h *HCA) Node() int { return h.cfg.Node }

// Name returns the HCA's diagnostic name.
func (h *HCA) Name() string { return h.name }

// SetUplink attaches the host's egress link (host → switch).
func (h *HCA) SetUplink(l *fabric.Link) { h.uplink = l }

// Uplink returns the attached egress link.
func (h *HCA) Uplink() *fabric.Link { return h.uplink }

// SetPeerResolver installs the function used to find the HCA of a remote
// node for ack bookkeeping (control-plane shortcut; data still flows
// through the fabric).
func (h *HCA) SetPeerResolver(f func(node int) *HCA) { h.peer = f }

// Ack is a sender-side RC completion in transit back to the requesting
// node. It is the one piece of responder→requester signaling that the
// single-engine wiring short-circuits as a direct peer call; a sharded
// interconnect turns it into a real cross-host message instead.
type Ack struct {
	SrcQPN uint32
	Status Status
	Len    uint32
	WRID   uint64
}

// SetAckPath reroutes RC acks destined for *other* nodes through f instead
// of the direct peer-resolver call. The transport owns the return latency:
// completeSender hands the ack over immediately (no AckLatency here), and f
// must arrange for ApplyAck to run on the source node's engine context at a
// delivery time of its choosing. Acks for QPs on this same node are
// unaffected. Installing an ack path makes the HCA safe to run with its
// peers on different engines (internal/simpar), where a direct call into a
// concurrently running peer would be a data race and a causality violation.
func (h *HCA) SetAckPath(f func(srcNode int, ack Ack)) { h.ackPath = f }

// ApplyAck completes the send work request an Ack refers to. It must run
// on this HCA's engine context (the transport's delivery callback). A
// vanished QP (destroyed while the ack was in flight) drops the ack, same
// as the direct path.
func (h *HCA) ApplyAck(a Ack) {
	qp, ok := h.qps[a.SrcQPN]
	if !ok {
		return
	}
	qp.completeSend(a.Status, a.Len, a.WRID)
}

// MessagesSent returns the number of messages this HCA put on the wire.
func (h *HCA) MessagesSent() int64 { return h.msgsSent }

// BytesSent returns the total payload bytes this HCA put on the wire.
func (h *HCA) BytesSent() int64 { return h.bytesSent }

// QP returns the queue pair with the given number, or nil.
func (h *HCA) QP(qpn uint32) *QP { return h.qps[qpn] }

// AllocPD creates a protection domain bound to one guest address space
// (i.e. one VM). All MRs, CQs and QPs of that VM hang off its PD.
func (h *HCA) AllocPD(space *guestmem.Space) *PD {
	pd := &PD{hca: h, id: h.nextPD, space: space}
	h.nextPD++
	h.pds = append(h.pds, pd)
	return pd
}

// PDs returns every protection domain allocated on this adapter, in
// allocation order (deterministic).
func (h *HCA) PDs() []*PD { return h.pds }

// StallCompletions begins a device-wide completion stall: every CQ on the
// adapter withholds CQEs and doorbell updates (the wire keeps moving). This
// models a firmware hiccup or an EQ/interrupt-moderation stall. Nested
// per-CQ via CQ.Stall.
func (h *HCA) StallCompletions() {
	for _, pd := range h.pds {
		for _, cq := range pd.cqs {
			cq.Stall()
		}
	}
}

// ResumeCompletions ends a device-wide stall; each CQ replays its withheld
// burst (see CQ.Resume). CQs created during the stall were never stalled and
// are unaffected.
func (h *HCA) ResumeCompletions() {
	for _, pd := range h.pds {
		for _, cq := range pd.cqs {
			cq.Resume()
		}
	}
}

// PD is a protection domain: the container real verbs use to tie MRs, QPs
// and CQs to one address space. It tracks its CQs and QPs, which is what
// lets the dom0 backend driver (package splitdriver) enumerate a guest's CQs
// for IBMon — every control-path operation is visible to dom0 even on a
// bypass device.
type PD struct {
	hca   *HCA
	id    uint32
	space *guestmem.Space
	cqs   []*CQ
	qps   []*QP
}

// CQs returns the completion queues created in this PD.
func (pd *PD) CQs() []*CQ { return pd.cqs }

// QPs returns the queue pairs created in this PD (including destroyed
// ones).
func (pd *PD) QPs() []*QP { return pd.qps }

// HCA returns the owning adapter.
func (pd *PD) HCA() *HCA { return pd.hca }

// Space returns the guest address space the PD is bound to.
func (pd *PD) Space() *guestmem.Space { return pd.space }

// RegisterMR registers [addr, addr+n) for DMA with the given access rights,
// pinning it in the TPT. The returned MR's key is its lkey.
func (pd *PD) RegisterMR(addr guestmem.Addr, n uint64, access Access) (*MR, error) {
	if size := pd.space.Size(); uint64(addr) > size || n > size-uint64(addr) {
		return nil, ErrMRTooLarge
	}
	h := pd.hca
	mr := &MR{pd: pd, addr: addr, len: n, access: access, key: h.nextKey}
	h.nextKey++
	h.tpt[mr.key] = mr
	return mr, nil
}

// MR is a registered memory region (one TPT entry).
type MR struct {
	pd     *PD
	addr   guestmem.Addr
	len    uint64
	access Access
	key    uint32
}

// Key returns the MR's protection key (lkey).
func (mr *MR) Key() uint32 { return mr.key }

// Addr returns the region's base address.
func (mr *MR) Addr() guestmem.Addr { return mr.addr }

// Len returns the region's length.
func (mr *MR) Len() uint64 { return mr.len }

// contains reports whether [addr, addr+n) lies within the MR. A negative n
// never does, and the comparison cannot wrap.
func (mr *MR) contains(addr guestmem.Addr, n int) bool {
	if n < 0 || addr < mr.addr {
		return false
	}
	off := uint64(addr - mr.addr)
	return off <= mr.len && uint64(n) <= mr.len-off
}

// checkKey validates a key against the TPT for the given access, range and
// address space.
func (h *HCA) checkKey(key uint32, space *guestmem.Space, addr guestmem.Addr, n int, need Access) *MR {
	mr, ok := h.tpt[key]
	if !ok {
		return nil
	}
	if mr.pd.space != space && space != nil {
		return nil
	}
	if need != 0 && mr.access&need != need {
		return nil
	}
	if !mr.contains(addr, n) {
		return nil
	}
	return mr
}
