// Package splitdriver models Xen's paravirtual split device driver for the
// InfiniBand HCA (paper §III): control-path operations from a guest —
// memory registration, CQ and QP creation, connection setup — all traverse
// the frontend/backend pair and execute in dom0, while data-path operations
// (posting, polling) bypass the VMM entirely.
//
// Two consequences the paper relies on are reproduced here:
//
//   - Cost: every control operation burns guest CPU (the frontend call),
//     dom0 CPU (the backend handler), and a round-trip latency. This is why
//     real IB applications register memory and build connections once, up
//     front, and never on the data path.
//   - Visibility: dom0 sees every control operation, so it knows each
//     guest's CQ rings, doorbell records, QPs and registered buffers even
//     though it never sees the data path. The Backend's registry is exactly
//     the "assistance from the dom0 device driver" that lets IBMon find
//     what to introspect.
package splitdriver

import (
	"fmt"

	"resex/internal/guestmem"
	"resex/internal/hca"
	"resex/internal/sim"
	"resex/internal/xen"
)

// Control-path overheads.
const (
	// GuestCPU per control op (frontend marshaling, hypercall).
	GuestCPU = 10 * sim.Microsecond
	// Dom0CPU per control op (backend handler).
	Dom0CPU = 15 * sim.Microsecond
	// RoundTrip is the event-channel round-trip latency added on top of
	// the CPU costs.
	RoundTrip = 20 * sim.Microsecond
)

// Backend is the dom0 side of the split driver: it owns the HCA control
// path and the per-domain resource registry.
type Backend struct {
	eng  *sim.Engine
	hca  *hca.HCA
	dom0 *xen.VCPU // nil = don't charge dom0 CPU
	pds  map[xen.DomID]*hca.PD
}

// NewBackend creates the dom0 backend for one host's HCA.
func NewBackend(eng *sim.Engine, h *hca.HCA, dom0 *xen.VCPU) *Backend {
	return &Backend{
		eng:  eng,
		hca:  h,
		dom0: dom0,
		pds:  make(map[xen.DomID]*hca.PD),
	}
}

// Frontend is the guest-side paravirtual driver for one domain.
type Frontend struct {
	be   *Backend
	dom  *xen.Domain
	vcpu *xen.VCPU
	pd   *hca.PD
}

// Connect attaches a guest domain to the backend, allocating its protection
// domain. The guest's VCPU is charged for its side of each control op when
// ops are issued with a process context.
func (b *Backend) Connect(dom *xen.Domain, vcpu *xen.VCPU) *Frontend {
	pd, ok := b.pds[dom.ID()]
	if !ok {
		pd = b.hca.AllocPD(dom.Memory())
		b.pds[dom.ID()] = pd
	}
	return &Frontend{be: b, dom: dom, vcpu: vcpu, pd: pd}
}

// PD exposes the underlying protection domain (for data-path setup that
// does not go through the frontend).
func (f *Frontend) PD() *hca.PD { return f.pd }

// charge bills one control operation to guest and dom0, with the
// round-trip latency. With a nil proc (setup phase before the simulation
// runs), the operation is free and instantaneous.
func (f *Frontend) charge(p *sim.Proc) {
	if p == nil {
		return
	}
	if f.vcpu != nil {
		f.vcpu.Use(p, GuestCPU)
	}
	if f.be.dom0 != nil {
		f.be.dom0.Use(p, Dom0CPU)
	}
	p.Sleep(RoundTrip)
}

// CreateCQ creates a completion queue through the control path.
func (f *Frontend) CreateCQ(p *sim.Proc, depth int) *hca.CQ {
	f.charge(p)
	return f.pd.CreateCQ(depth)
}

// CreateQP creates a queue pair through the control path.
func (f *Frontend) CreateQP(p *sim.Proc, sendCQ, recvCQ *hca.CQ, sqDepth, rqDepth int) *hca.QP {
	f.charge(p)
	return f.pd.CreateQP(sendCQ, recvCQ, sqDepth, rqDepth)
}

// RegisterMR registers guest memory for DMA through the control path (the
// backend validates and pins the pages, filling the TPT).
func (f *Frontend) RegisterMR(p *sim.Proc, addr guestmem.Addr, n uint64, access hca.Access) (*hca.MR, error) {
	f.charge(p)
	return f.pd.RegisterMR(addr, n, access)
}

// ConnectQP transitions a QP to RTS through the control path (the
// connection manager runs in dom0).
func (f *Frontend) ConnectQP(p *sim.Proc, qp *hca.QP, remoteNode int, remoteQPN uint32) error {
	f.charge(p)
	return qp.Connect(remoteNode, remoteQPN)
}

// DomainPD returns the registered protection domain of a guest, or nil.
func (b *Backend) DomainPD(dom xen.DomID) *hca.PD { return b.pds[dom] }

// CQsOf enumerates a guest's completion queues — what the backend tells
// IBMon to introspect.
func (b *Backend) CQsOf(dom xen.DomID) []*hca.CQ {
	pd, ok := b.pds[dom]
	if !ok {
		return nil
	}
	return pd.CQs()
}

// QPsOf enumerates a guest's queue pairs.
func (b *Backend) QPsOf(dom xen.DomID) []*hca.QP {
	pd, ok := b.pds[dom]
	if !ok {
		return nil
	}
	return pd.QPs()
}

// Describe renders the registry for diagnostics.
func (b *Backend) Describe(dom xen.DomID) string {
	pd, ok := b.pds[dom]
	if !ok {
		return fmt.Sprintf("dom %d: not connected", dom)
	}
	return fmt.Sprintf("dom %d: %d CQs, %d QPs, %d MRs", dom, len(pd.CQs()), len(pd.QPs()), len(pd.MRs()))
}
