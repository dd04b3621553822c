package hca

import (
	"fmt"

	"resex/internal/fabric"
	"resex/internal/guestmem"
)

// Opcode identifies a work request type.
type Opcode uint16

// Work request opcodes.
const (
	OpSend Opcode = iota + 1
	OpRecv
	OpRDMAWrite
	OpRDMAWriteImm
	OpRDMARead
	opReadResp // internal: data returning for an RDMA READ
)

// String names the opcode.
func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMAWriteImm:
		return "RDMA_WRITE_IMM"
	case OpRDMARead:
		return "RDMA_READ"
	case opReadResp:
		return "READ_RESP"
	default:
		return fmt.Sprintf("Opcode(%d)", uint16(o))
	}
}

// SendWR is a send-side work request.
type SendWR struct {
	// ID is returned in the completion.
	ID uint64
	// Op is one of OpSend, OpRDMAWrite, OpRDMAWriteImm, OpRDMARead.
	Op Opcode
	// LocalAddr/LKey describe the local buffer (source for sends/writes,
	// destination for reads). Must fall inside a registered MR.
	LocalAddr guestmem.Addr
	LKey      uint32
	// Len is the message length in bytes.
	Len int
	// RemoteAddr/RKey describe the remote buffer (RDMA ops only).
	RemoteAddr guestmem.Addr
	RKey       uint32
	// Imm is delivered in the remote completion for OpSend and
	// OpRDMAWriteImm.
	Imm uint32
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
// queue ring (introspectable like the rest of the device state).
const sqWQESize = 64

// QPState tracks the (simplified) IB connection state machine.
type QPState int

// QP states.
const (
	QPInit QPState = iota
	QPRTS          // connected: ready to send/receive
)

// wireMsg is the in-flight representation of one message: every MTU of the
// message carries a pointer to it, so reassembly is a counter.
type wireMsg struct {
	op       Opcode
	srcNode  int
	srcQPN   uint32
	dstQPN   uint32
	wrID     uint64
	len      int
	total    int // MTUs
	got      int
	imm      uint32
	payload  []byte
	remote   guestmem.Addr
	rkey     uint32
	readback *SendWR // for READ: the original request (completion target)
}

// QP is a reliable-connected queue pair.
type QP struct {
	pd     *PD
	qpn    uint32
	state  QPState
	sendCQ *CQ
	recvCQ *CQ

	sqDepth, rqDepth int
	sq               []SendWR
	outstanding      int // posted send WRs without a completion yet
	rq               []RecvWR
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

	// Receive side reassembly and RNR parking.
	pendingRecv []*wireMsg
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

// UARAddr returns the guest-physical address of the QP's doorbell page.
func (qp *QP) UARAddr() guestmem.Addr { return qp.uar }

// SQRingAddr returns the guest-physical address of the send WQE ring.
func (qp *QP) SQRingAddr() guestmem.Addr { return qp.sqRing }

// SQDepth returns the send queue capacity in WQEs.
func (qp *QP) SQDepth() int { return qp.sqDepth }

// SQWQESize is the bytes one send WQE occupies in the guest-memory ring
// (exported for introspection tools).
const SQWQESize = sqWQESize

// SendCQ returns the send completion queue.
func (qp *QP) SendCQ() *CQ { return qp.sendCQ }

// RecvCQ returns the receive completion queue.
func (qp *QP) RecvCQ() *CQ { return qp.recvCQ }

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
	if len(qp.rq) >= qp.rqDepth {
		return ErrRQFull
	}
	if qp.pd.hca.checkKey(wr.LKey, qp.pd.space, wr.Addr, wr.Len, AccessLocalWrite) == nil {
		return ErrBadLKey
	}
	qp.rq = append(qp.rq, wr)
	qp.postedRecvs++
	if len(qp.pendingRecv) > 0 {
		m := qp.pendingRecv[0]
		qp.pendingRecv = qp.pendingRecv[1:]
		qp.completeInbound(m)
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
	h := qp.pd.hca
	needLocal := wr.Len
	if h.checkKey(wr.LKey, qp.pd.space, wr.LocalAddr, needLocal, 0) == nil {
		return ErrBadLKey
	}
	// Write the WQE into the guest-memory ring (introspectable), then ring
	// the doorbell on the UAR page.
	slot := qp.sqHead % uint64(qp.sqDepth)
	base := qp.sqRing + guestmem.Addr(slot*sqWQESize)
	mem := qp.pd.space
	mem.WriteU32(base, uint32(wr.Op))
	mem.WriteU32(base+4, uint32(wr.Len))
	mem.WriteU64(base+8, wr.ID)
	mem.WriteU64(base+16, uint64(wr.LocalAddr))
	mem.WriteU64(base+24, uint64(wr.RemoteAddr))
	mem.WriteU32(base+32, wr.RKey)
	qp.sqHead++
	mem.WriteU32(qp.uar, uint32(qp.sqHead)) // doorbell
	qp.sq = append(qp.sq, wr)
	qp.outstanding++
	qp.kick()
	return nil
}

// completeSend writes a send-side completion and frees the WQE slot.
func (qp *QP) completeSend(op Opcode, status Status, byteLen uint32, wrID uint64) {
	if qp.outstanding > 0 {
		qp.outstanding--
	}
	qp.completedSends++
	qp.sendCQ.push(qp.qpn, op, status, byteLen, wrID, 0)
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
	delete(pd.hca.qps, qp.qpn)
	for _, wr := range qp.sq {
		qp.completeSend(wr.Op, StatusFlushErr, 0, wr.ID)
	}
	qp.sq = nil
	qp.outstanding = 0
	for _, rwr := range qp.rq {
		qp.completedRecvs++
		qp.recvCQ.push(qp.qpn, OpRecv, StatusFlushErr, 0, rwr.ID, 0)
	}
	qp.rq = nil
	qp.pendingRecv = nil
}

// kick starts the device-side send engine if idle.
func (qp *QP) kick() {
	if qp.processing || len(qp.sq) == 0 {
		return
	}
	qp.processing = true
	h := qp.pd.hca
	h.eng.After(h.cfg.ProcDelay, qp.onProcess)
}

// processHead takes the WQE at the head of the send queue, segments it and
// hands the MTUs to the uplink, then moves on. RC ordering holds because
// the link serves each flow FIFO.
func (qp *QP) processHead() {
	if qp.destroyed || len(qp.sq) == 0 {
		qp.processing = false
		return
	}
	h := qp.pd.hca
	wr := qp.sq[0]
	qp.sq = qp.sq[1:]

	// rkeys are validated at the responder, as on real hardware.
	switch wr.Op {
	case OpRDMARead:
		// A read request is a single control MTU to the responder; the
		// responder streams the data back.
		m := &wireMsg{
			op: OpRDMARead, srcNode: h.cfg.Node, srcQPN: qp.qpn,
			dstQPN: qp.remoteQPN, wrID: wr.ID, len: wr.Len, total: 1,
			remote: wr.RemoteAddr, rkey: wr.RKey,
		}
		m.readback = &wr
		qp.sendMsg(m, 0)
	default:
		var payload []byte
		if wr.Payload != nil {
			payload = wr.Payload
		}
		m := &wireMsg{
			op: wr.Op, srcNode: h.cfg.Node, srcQPN: qp.qpn,
			dstQPN: qp.remoteQPN, wrID: wr.ID, len: wr.Len,
			total: mtuCount(wr.Len, h.cfg.MTU), imm: wr.Imm,
			payload: payload, remote: wr.RemoteAddr, rkey: wr.RKey,
		}
		qp.sendMsg(m, wr.Len)
	}
	if len(qp.sq) > 0 {
		h.eng.After(h.cfg.ProcDelay, qp.onProcess)
	} else {
		qp.processing = false
	}
}

// mtuCount returns the number of MTUs needed for n bytes (min 1).
func mtuCount(n, mtu int) int {
	if n <= 0 {
		return 1
	}
	return (n + mtu - 1) / mtu
}

// sendMsg enqueues all MTUs of m onto the uplink.
func (qp *QP) sendMsg(m *wireMsg, byteLen int) {
	h := qp.pd.hca
	h.msgsSent++
	h.bytesSent += int64(byteLen)
	rem := m.len
	if m.op == OpRDMARead {
		rem = 0 // the read request itself carries no payload
	}
	for i := 0; i < m.total; i++ {
		sz := rem
		if sz > h.cfg.MTU {
			sz = h.cfg.MTU
		}
		if sz <= 0 {
			sz = 64 // control-only packet (zero-length send, read request)
		}
		rem -= sz
		pkt := h.newPacket()
		*pkt = fabric.Packet{
			Flow:    qp.qpn,
			SrcNode: h.cfg.Node,
			DstNode: qp.remoteNode,
			DstFlow: m.dstQPN,
			Bytes:   sz,
			Index:   i,
			Last:    i == m.total-1,
			Meta:    m,
		}
		h.uplink.Send(pkt)
	}
}

// Deliver is the downlink receiver for a host: the cluster wiring points
// the switch→host link's deliver function here. It is the packet's terminal
// consumer and recycles it before acting on the message.
func (h *HCA) Deliver(pkt *fabric.Packet) {
	m, dstQPN := pkt.Meta.(*wireMsg), pkt.DstFlow
	h.recycle(pkt)
	m.got++
	if m.got < m.total {
		return
	}
	qp, ok := h.qps[dstQPN]
	if !ok {
		// Stale packet for a destroyed QP: drop, complete sender with error.
		h.completeSender(m, StatusRemoteAccessErr)
		return
	}
	switch m.op {
	case OpRDMARead:
		qp.handleReadRequest(m)
	case opReadResp:
		qp.handleReadResponse(m)
	default:
		qp.handleInbound(m)
	}
}

// handleInbound processes a fully arrived SEND or RDMA WRITE.
func (qp *QP) handleInbound(m *wireMsg) {
	h := qp.pd.hca
	switch m.op {
	case OpRDMAWrite, OpRDMAWriteImm:
		mr := h.checkKey(m.rkey, qp.pd.space, m.remote, m.len, AccessRemoteWrite)
		if mr == nil {
			h.completeSender(m, StatusRemoteAccessErr)
			return
		}
		if m.payload != nil {
			qp.pd.space.Write(m.remote, m.payload)
		}
		if m.op == OpRDMAWriteImm {
			// Consumes a receive WQE for the immediate notification.
			if len(qp.rq) == 0 {
				qp.pendingRecv = append(qp.pendingRecv, m)
				return
			}
			qp.completeInbound(m)
			return
		}
		// Plain write: invisible to the responder CPU; ack the sender only.
		h.completeSender(m, StatusOK)
	case OpSend:
		if len(qp.rq) == 0 {
			qp.pendingRecv = append(qp.pendingRecv, m) // RNR: park
			return
		}
		qp.completeInbound(m)
	}
}

// completeInbound consumes a receive WQE for m and generates both-side
// completions.
func (qp *QP) completeInbound(m *wireMsg) {
	h := qp.pd.hca
	rwr := qp.rq[0]
	qp.rq = qp.rq[1:]
	qp.completedRecvs++
	status := StatusOK
	if m.op == OpSend {
		if m.len > rwr.Len {
			status = StatusLocalProtErr
		} else if m.payload != nil {
			qp.pd.space.Write(rwr.Addr, m.payload)
		}
	}
	qp.recvCQ.push(qp.qpn, OpRecv, status, uint32(m.len), rwr.ID, m.imm)
	h.completeSender(m, status)
}

// completeSender schedules the sender-side completion after the RC ack
// latency. With an ack path installed (SetAckPath), completions for remote
// nodes become transport messages — the transport adds its own return
// latency — instead of a direct call into the peer HCA.
func (h *HCA) completeSender(m *wireMsg, status Status) {
	if h.ackPath != nil && m.srcNode != h.cfg.Node {
		h.ackPath(m.srcNode, Ack{
			SrcQPN: m.srcQPN, Op: m.op, Status: status,
			Len: uint32(m.len), WRID: m.wrID,
		})
		return
	}
	src := h.peerHCA(m.srcNode)
	h.eng.After(h.cfg.AckLatency, func() {
		srcQP, ok := src.qps[m.srcQPN]
		if !ok {
			return
		}
		srcQP.completeSend(m.op, status, uint32(m.len), m.wrID)
	})
}

// handleReadRequest streams read-response data back to the requester.
func (qp *QP) handleReadRequest(m *wireMsg) {
	h := qp.pd.hca
	mr := h.checkKey(m.rkey, qp.pd.space, m.remote, m.len, AccessRemoteRead)
	if mr == nil {
		h.completeSender(m, StatusRemoteAccessErr)
		return
	}
	payload := make([]byte, m.len)
	qp.pd.space.Read(m.remote, payload)
	resp := &wireMsg{
		op: opReadResp, srcNode: h.cfg.Node, srcQPN: qp.qpn,
		dstQPN: m.srcQPN, wrID: m.wrID, len: m.len,
		total: mtuCount(m.len, h.cfg.MTU), payload: payload,
		readback: m.readback,
	}
	qp.sendMsg(resp, m.len)
}

// handleReadResponse lands read data in the requester's buffer and
// completes the original READ work request.
func (qp *QP) handleReadResponse(m *wireMsg) {
	wr := m.readback
	if wr != nil && m.payload != nil {
		qp.pd.space.Write(wr.LocalAddr, m.payload)
	}
	qp.completeSend(OpRDMARead, StatusOK, uint32(m.len), m.wrID)
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
