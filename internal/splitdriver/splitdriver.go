// Package splitdriver models Xen's paravirtual split device driver for the
// InfiniBand HCA (paper §III): control-path operations from a guest —
// memory registration, CQ and QP creation, connection setup — all traverse
// the frontend/backend pair and execute in dom0, while data-path operations
// (posting, polling) bypass the VMM entirely.
//
// The consequence the paper relies on is visibility: dom0 sees every
// control operation, so it knows each guest's CQ rings and doorbell records
// even though it never sees the data path. The Backend's registry is
// exactly the "assistance from the dom0 device driver" that lets IBMon find
// what to introspect.
package splitdriver

import (
	"resex/internal/hca"
	"resex/internal/xen"
)

// Backend is the dom0 side of the split driver: it owns the HCA control
// path and the per-domain resource registry.
type Backend struct {
	hca *hca.HCA
	pds map[xen.DomID]*hca.PD
}

// NewBackend creates the dom0 backend for one host's HCA.
func NewBackend(h *hca.HCA) *Backend {
	return &Backend{hca: h, pds: make(map[xen.DomID]*hca.PD)}
}

// Connect attaches a guest domain to the backend and returns its protection
// domain, allocating it on first connect. Every verbs resource the guest
// creates in that PD is visible in the registry.
func (b *Backend) Connect(dom *xen.Domain) *hca.PD {
	pd, ok := b.pds[dom.ID()]
	if !ok {
		pd = b.hca.AllocPD(dom.Memory())
		b.pds[dom.ID()] = pd
	}
	return pd
}

// CQsOf enumerates a guest's completion queues — what the backend tells
// IBMon to introspect.
func (b *Backend) CQsOf(dom xen.DomID) []*hca.CQ {
	pd, ok := b.pds[dom]
	if !ok {
		return nil
	}
	return pd.CQs()
}
