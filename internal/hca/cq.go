package hca

import (
	"fmt"

	"resex/internal/guestmem"
	"resex/internal/sim"
)

// CQE layout in guest memory (32 bytes, little-endian):
//
//	off  0  u32  stamp   — low 32 bits of (completion index + 1); 0 = empty
//	off  4  u32  qpn
//	off  8  u32  byteLen
//	off 12  u16  opcode | u16 status
//	off 16  u64  wrID
//	off 24  u32  zero
//	off 28  u32  reserved
//	off 32  u64  device timestamp (ns)
//
// The HCA additionally maintains an 8-byte doorbell record holding the
// monotonic producer count. Both the ring and the record live in guest
// memory, which is what makes out-of-band introspection (IBMon) possible.
const (
	CQESize    = 40
	cqeOffQPN  = 4
	cqeOffLen  = 8
	cqeOffOp   = 12
	cqeOffWRID = 16
	cqeOffTime = 32
)

// CQDBRecSize is the size of the CQ doorbell record in guest memory.
const CQDBRecSize = 8

// Status is the completion status of a work request.
type Status uint16

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRemoteAccessErr
	StatusLocalProtErr
	StatusFlushErr // work request flushed by QP destruction
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRemoteAccessErr:
		return "RemoteAccessErr"
	case StatusLocalProtErr:
		return "LocalProtErr"
	case StatusFlushErr:
		return "FlushErr"
	default:
		return fmt.Sprintf("Status(%d)", uint16(s))
	}
}

// CQE is a decoded completion queue entry.
type CQE struct {
	QPN     uint32
	ByteLen uint32
	Opcode  Opcode
	Status  Status
	WRID    uint64
	// At is the device timestamp of the completion (when the HCA wrote the
	// CQE), decoded from the entry itself.
	At sim.Time
}

// CQ is a completion queue whose ring buffer and producer doorbell record
// live in the owning VM's guest memory.
type CQ struct {
	pd       *PD
	cqn      uint32
	depth    int
	ring     guestmem.Addr
	dbrec    guestmem.Addr
	pi       uint64 // produced (HCA)
	ci       uint64 // consumed (application)
	overruns int64
	sig      *sim.Signal

	// Completion-stall fault state: while stalled > 0 the device keeps
	// finishing work on the wire but withholds the CQEs; they replay as one
	// burst on resume (often overrunning the ring — the forced-overrun fault).
	stalled       int
	stallEpisodes int64
	deferred      []pendingCQE
}

// pendingCQE is a completion withheld by an active stall.
type pendingCQE struct {
	qpn     uint32
	op      Opcode
	status  Status
	byteLen uint32
	wrID    uint64
}

// CreateCQ allocates a completion queue of the given depth (rounded up to at
// least 1) in the PD's guest memory.
func (pd *PD) CreateCQ(depth int) *CQ {
	if depth < 1 {
		depth = 1
	}
	h := pd.hca
	cq := &CQ{
		pd:    pd,
		cqn:   h.nextCQN,
		depth: depth,
		ring:  pd.space.Alloc(uint64(depth)*CQESize, 64),
		dbrec: pd.space.Alloc(CQDBRecSize, 8),
		sig:   sim.NewSignal(h.eng),
	}
	h.nextCQN++
	pd.cqs = append(pd.cqs, cq)
	return cq
}

// CQN returns the completion queue number.
func (cq *CQ) CQN() uint32 { return cq.cqn }

// Depth returns the ring capacity in entries.
func (cq *CQ) Depth() int { return cq.depth }

// RingAddr returns the guest-physical address of the CQE ring. Dom0 tools
// map this via introspection.
func (cq *CQ) RingAddr() guestmem.Addr { return cq.ring }

// DBRecAddr returns the guest-physical address of the producer doorbell
// record.
func (cq *CQ) DBRecAddr() guestmem.Addr { return cq.dbrec }

// Signal is broadcast each time the HCA appends a CQE; pollers SpinWait on
// it.
func (cq *CQ) Signal() *sim.Signal { return cq.sig }

// push appends a completion, writing its bytes into guest memory and
// bumping the doorbell record. If the application has fallen a full ring
// behind, the oldest unreaped entry is overwritten — a CQ overrun, counted
// in Overruns() — because the device does not stop completing work when the
// consumer is slow. (This is also what makes IBMon's sampling lossy when
// its period is too long.)
func (cq *CQ) push(qpn uint32, op Opcode, status Status, byteLen uint32, wrID uint64) {
	if cq.stalled > 0 {
		cq.deferred = append(cq.deferred, pendingCQE{qpn, op, status, byteLen, wrID})
		return
	}
	if cq.pi-cq.ci >= uint64(cq.depth) {
		cq.overruns++
	}
	slot := cq.pi % uint64(cq.depth)
	base := cq.ring + guestmem.Addr(slot*CQESize)
	mem := cq.pd.space
	mem.WriteU32(base, uint32(cq.pi+1)) // stamp
	mem.WriteU32(base+cqeOffQPN, qpn)
	mem.WriteU32(base+cqeOffLen, byteLen)
	mem.WriteU32(base+cqeOffOp, uint32(op)|uint32(status)<<16)
	mem.WriteU64(base+cqeOffWRID, wrID)
	mem.WriteU64(base+cqeOffTime, uint64(cq.pd.hca.eng.Now()))
	cq.pi++
	mem.WriteU64(cq.dbrec, cq.pi)
	cq.sig.Broadcast()
}

// Overruns returns how many completions overwrote unreaped entries.
func (cq *CQ) Overruns() int64 { return cq.overruns }

// Stall begins withholding completions: DMA and wire traffic continue, but
// no CQE or doorbell update reaches guest memory until Resume. Calls nest.
func (cq *CQ) Stall() {
	if cq.stalled == 0 {
		cq.stallEpisodes++
	}
	cq.stalled++
}

// StallEpisodes returns how many distinct stall episodes (0→stalled
// transitions) this CQ has experienced. The invariant auditor uses it to
// tell fault-injected overruns (resume bursts) from organic ones: a CQ with
// overruns but no stall history indicates a consumer bug.
func (cq *CQ) StallEpisodes() int64 { return cq.stallEpisodes }

// Resume ends one Stall. When the last nested stall ends, every withheld
// completion is written back-to-back at the current instant — a burst that
// overruns the ring whenever more completions accumulated than it holds,
// which is exactly the forced-CQ-overrun fault and what makes a sampling
// monitor lose entries.
func (cq *CQ) Resume() {
	if cq.stalled == 0 {
		return
	}
	cq.stalled--
	if cq.stalled > 0 {
		return
	}
	burst := cq.deferred
	cq.deferred = nil
	for _, e := range burst {
		cq.push(e.qpn, e.op, e.status, e.byteLen, e.wrID)
	}
}

// Stalled reports whether a completion stall is active.
func (cq *CQ) Stalled() bool { return cq.stalled > 0 }

// Poll reaps one completion if available. Like a real driver, it parses the
// entry out of the guest-memory ring: the simulation state is the bytes.
// After an overrun the oldest surviving entry is returned; overwritten ones
// are gone (visible via Overruns).
func (cq *CQ) Poll() (CQE, bool) {
	if cq.pi-cq.ci > uint64(cq.depth) {
		cq.ci = cq.pi - uint64(cq.depth) // resync past overwritten entries
	}
	slot := cq.ci % uint64(cq.depth)
	base := cq.ring + guestmem.Addr(slot*CQESize)
	mem := cq.pd.space
	stamp := mem.ReadU32(base)
	if stamp != uint32(cq.ci+1) {
		return CQE{}, false
	}
	opst := mem.ReadU32(base + cqeOffOp)
	e := CQE{
		QPN:     mem.ReadU32(base + cqeOffQPN),
		ByteLen: mem.ReadU32(base + cqeOffLen),
		Opcode:  Opcode(opst & 0xffff),
		Status:  Status(opst >> 16),
		WRID:    mem.ReadU64(base + cqeOffWRID),
		At:      sim.Time(mem.ReadU64(base + cqeOffTime)),
	}
	cq.ci++
	return e, true
}

// Drain polls until the CQ is empty and returns how many completions it
// reaped.
func (cq *CQ) Drain() int {
	n := 0
	for {
		if _, ok := cq.Poll(); !ok {
			return n
		}
		n++
	}
}

// Pending returns the number of unreaped completions.
func (cq *CQ) Pending() int { return int(cq.pi - cq.ci) }
