package hca

import (
	"fmt"

	"resex/internal/fabric"
	"resex/internal/guestmem"
	"resex/internal/ring"
)

// Opcode identifies a work request type.
type Opcode uint16

// Work request opcodes.
const (
	OpSend Opcode = iota + 1
	OpRecv
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	default:
		return fmt.Sprintf("Opcode(%d)", uint16(o))
	}
}

// SendWR is a SEND work request: the message lands in the oldest receive
// buffer the responder has posted.
type SendWR struct {
	// ID is returned in the completion.
	ID uint64
	// LocalAddr/LKey describe the source buffer. Must fall inside a
	// registered MR.
	LocalAddr guestmem.Addr
	LKey      uint32
	// Len is the message length in bytes.
	Len int
	// Payload, if non-nil, is the actual data deposited at the destination.
	// It may be shorter than Len (the rest is undefined padding, charged on
	// the wire but not copied). Nil means "bytes don't matter". The device
	// reads it only at delivery, possibly on another simpar shard's
	// goroutine, so the caller must not modify it before the send
	// completes, as with a real verbs send buffer.
	Payload []byte
}

// RecvWR posts a receive buffer.
type RecvWR struct {
	ID   uint64
	Addr guestmem.Addr
	LKey uint32
	Len  int
}

// sqWQESize is the bytes one send WQE occupies in the guest-memory send
// queue ring (introspectable like the rest of the device state):
//
//	off  0  u32  opcode (always OpSend)
//	off  4  u32  length
//	off  8  u64  wrID
//	off 16  u64  local address
//	off 24       zero to the end of the slot (unused)
const sqWQESize = 64

// QPState tracks the (simplified) IB connection state machine.
type QPState int

// QP states.
const (
	QPInit QPState = iota
	QPRTS          // connected: ready to send/receive
)

// wireMsg is the in-flight representation of one message: every MTU of the
// message carries a pointer to it, so reassembly is a counter. Messages come
// from an HCA free list (newMsg) and go back to one once finished (freeMsg).
type wireMsg struct {
	src     *HCA // the sending HCA
	srcQPN  uint32
	dstQPN  uint32
	srcNode int
	wrID    uint64
	len     int
	got     int // MTUs delivered
	payload []byte

	// train is how the message waits on the uplink, and on the receiver's
	// downlink as runs; the links build each MTU's packet from it when that
	// MTU starts serializing. train.MTUs is the message's MTU count. See
	// freeMsg for when the links stop reading it.
	train fabric.Train
}

// QP is a reliable-connected queue pair.
type QP struct {
	pd     *PD
	qpn    uint32
	state  QPState
	sendCQ *CQ
	recvCQ *CQ

	sqDepth, rqDepth int
	sq               ring.Queue[SendWR]
	outstanding      int // posted send WRs without a completion yet
	rq               ring.Queue[RecvWR]
	sqRing           guestmem.Addr // WQE ring in guest memory
	sqHead           uint64        // posted count
	uar              guestmem.Addr // doorbell page
	processing       bool
	onProcess        func() // qp.processHead, bound once

	remoteNode int
	remoteQPN  uint32
	destroyed  bool

	// Lifetime counters for invariant auditing: completions can never
	// outnumber posts on either queue, through flush and destroy included.
	completedSends uint64
	postedRecvs    uint64
	completedRecvs uint64

	// Receive side RNR parking: messages that arrived with no receive
	// buffer posted, oldest first.
	pendingRecv ring.Queue[*wireMsg]
}

// CreateQP creates a queue pair in the PD using the given completion queues
// (which may be the same CQ). sqDepth/rqDepth bound outstanding requests.
func (pd *PD) CreateQP(sendCQ, recvCQ *CQ, sqDepth, rqDepth int) *QP {
	if sqDepth < 1 {
		sqDepth = 1
	}
	if rqDepth < 0 {
		rqDepth = 0
	}
	h := pd.hca
	qp := &QP{
		pd:      pd,
		qpn:     h.nextQPN,
		sendCQ:  sendCQ,
		recvCQ:  recvCQ,
		sqDepth: sqDepth,
		rqDepth: rqDepth,
		sqRing:  pd.space.Alloc(uint64(sqDepth)*sqWQESize, 64),
		uar:     pd.space.AllocPage(),
	}
	qp.onProcess = qp.processHead
	h.nextQPN++
	h.qps[qp.qpn] = qp
	pd.qps = append(pd.qps, qp)
	return qp
}

// QPN returns the queue pair number.
func (qp *QP) QPN() uint32 { return qp.qpn }

// State returns the connection state.
func (qp *QP) State() QPState { return qp.state }

// Remote returns the node and QP number the QP is connected to.
func (qp *QP) Remote() (node int, qpn uint32) { return qp.remoteNode, qp.remoteQPN }

// SQDepth returns the send queue capacity in WQEs.
func (qp *QP) SQDepth() int { return qp.sqDepth }

// SendCQ returns the send completion queue.
func (qp *QP) SendCQ() *CQ { return qp.sendCQ }

// SQAvailable returns the remaining send queue capacity: a posted work
// request occupies its WQE slot until the device writes its completion, as
// on real hardware.
func (qp *QP) SQAvailable() int { return qp.sqDepth - qp.outstanding }

// PostedSends returns the lifetime count of accepted send work requests
// (the doorbell counter).
func (qp *QP) PostedSends() uint64 { return qp.sqHead }

// CompletedSends returns the lifetime count of send-side completions,
// including flush completions at destroy. Causality requires
// CompletedSends <= PostedSends at every instant.
func (qp *QP) CompletedSends() uint64 { return qp.completedSends }

// PostedRecvs returns the lifetime count of accepted receive buffers.
func (qp *QP) PostedRecvs() uint64 { return qp.postedRecvs }

// CompletedRecvs returns the lifetime count of consumed receive buffers
// (delivered messages plus destroy-time flushes); never exceeds
// PostedRecvs.
func (qp *QP) CompletedRecvs() uint64 { return qp.completedRecvs }

// Connect transitions the QP to RTS toward a remote QP. Both ends must be
// connected (as an out-of-band connection manager would do).
func (qp *QP) Connect(remoteNode int, remoteQPN uint32) error {
	if qp.state == QPRTS {
		return ErrConnected
	}
	qp.remoteNode = remoteNode
	qp.remoteQPN = remoteQPN
	qp.state = QPRTS
	return nil
}

// SetRateLimit paces this QP's egress to at most bytesPerSec on the host
// uplink (0 removes the limit) — the per-flow bandwidth control of newer
// InfiniBand adapters. Unlike ResEx's CPU caps, it throttles I/O without
// touching the VM's compute; the rate-limit ablation compares the two
// mechanisms.
func (qp *QP) SetRateLimit(bytesPerSec float64) {
	qp.pd.hca.uplink.SetFlowRateLimit(qp.qpn, bytesPerSec)
}

// RateLimit returns the QP's configured egress pacing rate (0 = none).
func (qp *QP) RateLimit() float64 {
	return qp.pd.hca.uplink.FlowRateLimit(qp.qpn)
}

// PostRecv posts a receive buffer. If SENDs arrived before buffers were
// available (RNR condition) the oldest parked message is delivered
// immediately.
func (qp *QP) PostRecv(wr RecvWR) error {
	if qp.rq.Len() >= qp.rqDepth {
		return ErrRQFull
	}
	if qp.pd.hca.checkKey(wr.LKey, qp.pd.space, wr.Addr, wr.Len, AccessLocalWrite) == nil {
		return ErrBadLKey
	}
	qp.rq.Push(wr)
	qp.postedRecvs++
	if qp.pendingRecv.Len() > 0 {
		qp.completeInbound(qp.pendingRecv.Pop())
	}
	return nil
}

// PostSend enqueues a work request and rings the doorbell. The device
// processes the send queue asynchronously; the caller learns completion
// through the send CQ. PostSend itself is instantaneous — the *application*
// layer charges posting CPU cost to its VCPU.
func (qp *QP) PostSend(wr SendWR) error {
	if qp.state != QPRTS || qp.destroyed {
		return ErrNotRTS
	}
	if qp.outstanding >= qp.sqDepth {
		return ErrSQFull
	}
	if wr.Payload != nil && len(wr.Payload) > wr.Len {
		return ErrPayloadSize
	}
	if qp.pd.hca.checkKey(wr.LKey, qp.pd.space, wr.LocalAddr, wr.Len, 0) == nil {
		return ErrBadLKey
	}
	// Write the WQE into the guest-memory ring (introspectable), then ring
	// the doorbell on the UAR page.
	slot := qp.sqHead % uint64(qp.sqDepth)
	base := qp.sqRing + guestmem.Addr(slot*sqWQESize)
	mem := qp.pd.space
	mem.WriteU32(base, uint32(OpSend))
	mem.WriteU32(base+4, uint32(wr.Len))
	mem.WriteU64(base+8, wr.ID)
	mem.WriteU64(base+16, uint64(wr.LocalAddr))
	qp.sqHead++
	mem.WriteU32(qp.uar, uint32(qp.sqHead)) // doorbell
	qp.sq.Push(wr)
	qp.outstanding++
	qp.kick()
	return nil
}

// completeSend writes a send-side completion and frees the WQE slot.
func (qp *QP) completeSend(status Status, byteLen uint32, wrID uint64) {
	if qp.outstanding > 0 {
		qp.outstanding--
	}
	qp.completedSends++
	qp.sendCQ.push(qp.qpn, OpSend, status, byteLen, wrID)
}

// DestroyQP tears a queue pair down: pending send and receive work
// requests are flushed with StatusFlushErr completions (as real verbs do),
// parked inbound messages are dropped, and packets still in flight toward
// the QP will complete their senders with remote errors.
func (pd *PD) DestroyQP(qp *QP) {
	if qp.destroyed {
		return
	}
	qp.destroyed = true
	h := pd.hca
	delete(h.qps, qp.qpn)
	for qp.sq.Len() > 0 {
		wr := qp.sq.Pop()
		qp.completeSend(StatusFlushErr, 0, wr.ID)
	}
	qp.outstanding = 0
	for qp.rq.Len() > 0 {
		rwr := qp.rq.Pop()
		qp.completedRecvs++
		qp.recvCQ.push(qp.qpn, OpRecv, StatusFlushErr, 0, rwr.ID)
	}
	for qp.pendingRecv.Len() > 0 {
		h.freeMsg(qp.pendingRecv.Pop())
	}
}

// kick starts the device-side send engine if idle.
func (qp *QP) kick() {
	if qp.processing || qp.sq.Len() == 0 {
		return
	}
	qp.processing = true
	h := qp.pd.hca
	h.procQ.After(qp.onProcess)
}

// processHead takes the WQE at the head of the send queue, segments it and
// hands the MTUs to the uplink, then moves on. RC ordering holds because
// the link serves each flow FIFO.
func (qp *QP) processHead() {
	if qp.destroyed || qp.sq.Len() == 0 {
		qp.processing = false
		return
	}
	h := qp.pd.hca
	wr := qp.sq.Pop()

	m := h.newMsg()
	m.src, m.srcNode, m.srcQPN, m.dstQPN = h, h.cfg.Node, qp.qpn, qp.remoteQPN
	m.wrID, m.len, m.payload = wr.ID, wr.Len, wr.Payload
	qp.sendMsg(m)
	if qp.sq.Len() > 0 {
		h.procQ.After(qp.onProcess)
	} else {
		qp.processing = false
	}
}

// mtuCount returns the number of MTUs needed for n bytes (min 1).
func mtuCount(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + fabric.DefaultMTU - 1) / fabric.DefaultMTU
}

// sendMsg queues m on the uplink as one train of MTUs.
func (qp *QP) sendMsg(m *wireMsg) {
	h := qp.pd.hca
	h.msgsSent++
	h.bytesSent += int64(m.len)
	mtus := mtuCount(m.len)
	last := m.len - (mtus-1)*fabric.DefaultMTU
	if last <= 0 {
		last = 64 // control-only packet (zero-length send)
	}
	m.train = fabric.Train{
		Template: fabric.Packet{
			Flow:    qp.qpn,
			SrcNode: h.cfg.Node,
			DstNode: qp.remoteNode,
			DstFlow: m.dstQPN,
			Meta:    m,
		},
		MTUs:      mtus,
		MTU:       fabric.DefaultMTU,
		LastBytes: last,
		New:       h.onNewPacket,
	}
	h.uplink.SendTrain(&m.train)
}

// Deliver is the downlink receiver for a host: the cluster wiring points
// the switch→host link's deliver function here. It is the packet's terminal
// consumer and releases it before acting on the message.
func (h *HCA) Deliver(pkt *fabric.Packet) {
	m, dstQPN := pkt.Meta.(*wireMsg), pkt.DstFlow
	h.ReleasePacket(pkt)
	m.got++
	if m.got < m.train.MTUs {
		return
	}
	qp, ok := h.qps[dstQPN]
	if !ok {
		// Stale packet for a destroyed QP: drop, complete sender with error.
		h.completeSender(m, StatusRemoteAccessErr)
		return
	}
	if qp.rq.Len() == 0 {
		qp.pendingRecv.Push(m) // RNR: park
		return
	}
	qp.completeInbound(m)
}

// completeInbound consumes a receive WQE for m and generates both-side
// completions.
func (qp *QP) completeInbound(m *wireMsg) {
	h := qp.pd.hca
	rwr := qp.rq.Pop()
	qp.completedRecvs++
	status := StatusOK
	if m.len > rwr.Len {
		status = StatusLocalProtErr
	} else if m.payload != nil {
		qp.pd.space.Write(rwr.Addr, m.payload)
	}
	qp.recvCQ.push(qp.qpn, OpRecv, status, uint32(m.len), rwr.ID)
	h.completeSender(m, status)
}

// completeSender schedules the sender-side completion after the RC ack
// latency and finishes m. With an ack path installed (SetAckPath),
// completions for remote nodes become transport messages — the transport
// adds its own return latency — instead of a direct call into the peer HCA.
func (h *HCA) completeSender(m *wireMsg, status Status) {
	a := Ack{SrcQPN: m.srcQPN, Status: status, Len: uint32(m.len), WRID: m.wrID}
	src := m.srcNode
	h.freeMsg(m)
	if h.ackPath != nil && src != h.cfg.Node {
		h.ackPath(src, a)
		return
	}
	h.acks.Push(pendingAck{src: h.peerHCA(src), ack: a})
	h.ackQ.After(h.onAck)
}

// ack completes the oldest pending sender completion. AckLatency is fixed,
// so acks fire in the order completeSender queued them.
func (h *HCA) ack() {
	a := h.acks.Pop()
	a.src.ApplyAck(a.ack)
}

// peerHCA resolves a node id to its HCA.
func (h *HCA) peerHCA(node int) *HCA {
	if node == h.cfg.Node {
		return h
	}
	if h.peer == nil {
		panic("hca: peer resolver not set")
	}
	p := h.peer(node)
	if p == nil {
		panic(fmt.Sprintf("hca: unknown peer node %d", node))
	}
	return p
}
