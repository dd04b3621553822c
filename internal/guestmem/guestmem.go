// Package guestmem models guest-physical memory for simulated virtual
// machines.
//
// Why this exists: the paper's IBMon infers a VM's I/O activity purely by
// reading the bytes that the (VMM-bypass) HCA DMA-writes into guest memory —
// completion-queue entries, doorbell records, work-queue descriptors. To
// reproduce that honestly, the simulated HCA must actually write binary
// structures into a byte-addressable guest address space, and IBMon must
// parse them back out with no side channel. This package provides that
// address space: sparse 4 KiB pages that hold only the chunks written so
// far, bounds-checked accessors, a bump allocator, and region views that
// dom0 obtains via the hypervisor's map-foreign-range introspection call.
package guestmem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the guest page size in bytes (x86 4 KiB, as in the paper's
// UAR pages).
const PageSize = 4096

// Addr is a guest-physical address.
type Addr uint64

// PageNum returns the page frame number containing a.
func (a Addr) PageNum() uint64 { return uint64(a) / PageSize }

// PageOff returns the offset of a within its page.
func (a Addr) PageOff() uint64 { return uint64(a) % PageSize }

// ChunkSize is the granularity at which a page's bytes exist. The guest
// writes the simulator makes are small and scattered: a 40-byte CQE, a
// 64-byte WQE, a 4-byte doorbell, a 72-byte request at the head of a 64 KB
// receive buffer. Most pages see one or two of them, so a page materializes
// only the 256-byte chunks that were written: one chunk covers a CQE, a WQE
// or a request, and the page's table of 16 chunk pointers costs half a
// chunk.
const ChunkSize = 256

// chunksPerPage is the number of chunks in one page.
const chunksPerPage = PageSize / ChunkSize

// chunk is one materialized ChunkSize-byte piece of a page.
type chunk [ChunkSize]byte

// page is one touched guest page: its written chunks, nil where no byte of
// a chunk was ever written.
type page [chunksPerPage]*chunk

// Space is one domain's guest-physical memory. Pages are materialized on
// first write, a chunk at a time; untouched memory reads as zero, like
// freshly ballooned RAM.
type Space struct {
	size  uint64
	pages map[uint64]*page
	brk   Addr // bump allocator cursor
	// last and lastPN cache the page the latest Write touched: a CQE or
	// WQE is several small writes to one page. Pages are never dropped,
	// so the cached pointer stays valid. Only Write updates the cache, so
	// a Read changes nothing in the Space.
	last   *page
	lastPN uint64
}

// NewSpace creates an address space of the given size in bytes (rounded up
// to whole pages).
func NewSpace(size uint64) *Space {
	if size == 0 {
		panic("guestmem: zero-size space")
	}
	if r := size % PageSize; r != 0 {
		size += PageSize - r
	}
	return &Space{
		size:  size,
		pages: make(map[uint64]*page),
		brk:   PageSize, // keep guest page 0 unmapped to catch null addresses
	}
}

// Size returns the size of the space in bytes.
func (s *Space) Size() uint64 { return s.size }

// Allocated returns the number of materialized pages: pages with at least
// one written chunk.
func (s *Space) Allocated() int { return len(s.pages) }

// check panics on out-of-range accesses: in a simulation these are simulator
// bugs, not recoverable guest faults.
func (s *Space) check(a Addr, n int) {
	if n < 0 || uint64(a) >= s.size || uint64(n) > s.size-uint64(a) {
		panic(fmt.Sprintf("guestmem: access [%#x,+%d) outside space of %d bytes", uint64(a), n, s.size))
	}
}

// Write copies b into the space at a.
func (s *Space) Write(a Addr, b []byte) {
	s.check(a, len(b))
	for len(b) > 0 {
		pn, off := a.PageNum(), a.PageOff()
		p := s.last
		if p == nil || s.lastPN != pn {
			if p = s.pages[pn]; p == nil {
				p = new(page)
				s.pages[pn] = p
			}
			s.last, s.lastPN = p, pn
		}
		n := min(len(b), int(PageSize-off))
		p.write(off, b[:n])
		b = b[n:]
		a += Addr(n)
	}
}

// write copies b, which fits in the page from off, materializing chunks.
func (p *page) write(off uint64, b []byte) {
	for len(b) > 0 {
		c := p[off/ChunkSize]
		if c == nil {
			c = new(chunk)
			p[off/ChunkSize] = c
		}
		n := copy(c[off%ChunkSize:], b)
		b = b[n:]
		off += uint64(n)
	}
}

// Read copies len(b) bytes from the space at a into b.
func (s *Space) Read(a Addr, b []byte) {
	s.check(a, len(b))
	for len(b) > 0 {
		pn, off := a.PageNum(), a.PageOff()
		n := min(len(b), int(PageSize-off))
		p := s.last
		if p == nil || s.lastPN != pn {
			p = s.pages[pn]
		}
		if p != nil {
			p.read(off, b[:n])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		a += Addr(n)
	}
}

// read fills b, which fits in the page from off; unwritten chunks read as
// zero.
func (p *page) read(off uint64, b []byte) {
	for len(b) > 0 {
		co := off % ChunkSize
		n := min(len(b), int(ChunkSize-co))
		if c := p[off/ChunkSize]; c != nil {
			copy(b[:n], c[co:])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		off += uint64(n)
	}
}

// WriteU32 stores a little-endian uint32 at a (IB structures are LE).
func (s *Space) WriteU32(a Addr, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.Write(a, b[:])
}

// ReadU32 loads a little-endian uint32 from a.
func (s *Space) ReadU32(a Addr) uint32 {
	var b [4]byte
	s.Read(a, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU64 stores a little-endian uint64 at a.
func (s *Space) WriteU64(a Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(a, b[:])
}

// ReadU64 loads a little-endian uint64 from a.
func (s *Space) ReadU64(a Addr) uint64 {
	var b [8]byte
	s.Read(a, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Alloc reserves n bytes with the given alignment (power of two, ≥1) and
// returns the base address. Allocation is bump-only; the simulation never
// frees guest memory.
func (s *Space) Alloc(n uint64, align uint64) Addr {
	if n == 0 {
		n = 1
	}
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("guestmem: alignment %d not a power of two", align))
	}
	base := (uint64(s.brk) + align - 1) &^ (align - 1)
	if base+n > s.size {
		panic(fmt.Sprintf("guestmem: out of memory allocating %d bytes (space %d, brk %#x)", n, s.size, uint64(s.brk)))
	}
	s.brk = Addr(base + n)
	return Addr(base)
}

// AllocPage reserves one page-aligned page (e.g. a UAR doorbell page).
func (s *Space) AllocPage() Addr { return s.Alloc(PageSize, PageSize) }

// Region is a bounds-checked window [Base, Base+Len) into a Space. The
// hypervisor's MapForeignRange returns Regions: dom0 tools hold Regions into
// guest memory, exactly like xc_map_foreign_range mappings.
type Region struct {
	space *Space
	base  Addr
	len   uint64
}

// NewRegion creates a region over space at [base, base+n).
func NewRegion(space *Space, base Addr, n uint64) *Region {
	space.check(base, int(n))
	return &Region{space: space, base: base, len: n}
}

// Base returns the guest-physical base address of the region.
func (r *Region) Base() Addr { return r.base }

// Len returns the region length in bytes.
func (r *Region) Len() uint64 { return r.len }

// checkOff panics unless [off, off+n) lies within the region. The
// comparison cannot wrap.
func (r *Region) checkOff(off uint64, n int) {
	if off > r.len || uint64(n) > r.len-off {
		panic(fmt.Sprintf("guestmem: region access [%d,+%d) outside region of %d bytes", off, n, r.len))
	}
}

// ReadU32 loads a little-endian uint32 at region offset off.
func (r *Region) ReadU32(off uint64) uint32 {
	r.checkOff(off, 4)
	return r.space.ReadU32(r.base + Addr(off))
}

// ReadU64 loads a little-endian uint64 at region offset off.
func (r *Region) ReadU64(off uint64) uint64 {
	r.checkOff(off, 8)
	return r.space.ReadU64(r.base + Addr(off))
}
