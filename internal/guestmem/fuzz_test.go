package guestmem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
)

// pageSpace is the reference guest memory for FuzzSpace: every touched page
// is a whole 4 KiB array in a map, with its own bounds arithmetic.
type pageSpace struct {
	size  uint64
	pages map[uint64]*[PageSize]byte
}

// inRange reports whether [a, a+n) lies in the space, without wrapping.
func (s *pageSpace) inRange(a Addr, n int) bool {
	end, carry := bits.Add64(uint64(a), uint64(n), 0)
	return n >= 0 && carry == 0 && uint64(a) < s.size && end <= s.size
}

func (s *pageSpace) write(a Addr, b []byte) {
	for len(b) > 0 {
		p := s.pages[a.PageNum()]
		if p == nil {
			p = new([PageSize]byte)
			s.pages[a.PageNum()] = p
		}
		n := copy(p[a.PageOff():], b)
		b = b[n:]
		a += Addr(n)
	}
}

func (s *pageSpace) read(a Addr, b []byte) {
	for len(b) > 0 {
		n := min(len(b), int(PageSize-a.PageOff()))
		if p := s.pages[a.PageNum()]; p != nil {
			copy(b[:n], p[a.PageOff():])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		a += Addr(n)
	}
}

// regionFits reports whether [off, off+n) lies in a region of length rlen,
// without wrapping.
func regionFits(off uint64, n int, rlen uint64) bool {
	end, carry := bits.Add64(off, uint64(n), 0)
	return n >= 0 && carry == 0 && end <= rlen
}

// fuzzOps decodes the fuzz input into fields.
type fuzzOps struct{ b []byte }

func (f *fuzzOps) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	v := f.b[0]
	f.b = f.b[1:]
	return v
}

func (f *fuzzOps) u16() int { return int(f.byte())<<8 | int(f.byte()) }

// offset returns a small offset, or now and then one just below 2^64, so
// that unchecked off+n arithmetic would wrap.
func (f *fuzzOps) offset(limit int) uint64 {
	v := f.u16()
	if v%29 == 0 {
		return ^uint64(0) - uint64(f.byte()%16)
	}
	return uint64(v % limit)
}

// panics reports whether fn panics.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// FuzzSpace applies the same random writes, reads, U32/U64 accesses and
// Region word reads to a Space and to pageSpace, crossing chunk and page
// boundaries. Both must agree on every byte read, on which accesses are out
// of bounds, and on the number of materialized pages.
func FuzzSpace(f *testing.F) {
	f.Add([]byte{0, 0x0f, 0xf0, 0x10, 0x00, 1, 0x0f, 0xe0, 0x01, 0x20})
	f.Add([]byte{4, 0x10, 0x00, 0x01, 0x00, 0, 0x00, 0xfc, 0x00, 0x08, 2, 0x00, 0x3a})
	f.Add([]byte{3, 0x2f, 0xfc, 5, 0x0f, 0xff, 0x40, 0x00, 0, 0x00, 0x1d, 0x00, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		const size = 6 * PageSize
		s := NewSpace(size)
		ref := &pageSpace{size: size, pages: map[uint64]*[PageSize]byte{}}
		ops := &fuzzOps{b: data}
		for step := 0; len(ops.b) > 0 && step < 64; step++ {
			op := ops.byte() % 6
			a := Addr(ops.offset(size + 64))
			n := ops.u16() % (2*PageSize + 300)
			buf := bytes.Repeat([]byte{byte(step + 1)}, n)
			for i := range buf {
				buf[i] += byte(i)
			}
			got, want := make([]byte, n), make([]byte, n)
			ok := ref.inRange(a, n)
			switch op {
			case 0:
				if panics(func() { s.Write(a, buf) }) == ok {
					t.Fatalf("step %d: Write(%#x, %d) panic disagrees with bounds %v", step, a, n, ok)
				}
				if ok {
					ref.write(a, buf)
				}
			case 1:
				if panics(func() { s.Read(a, got) }) == ok {
					t.Fatalf("step %d: Read(%#x, %d) panic disagrees with bounds %v", step, a, n, ok)
				}
				if ok {
					ref.read(a, want)
				}
			case 2, 3:
				w := 4 << (op - 2)
				ok = ref.inRange(a, w)
				v := binary.LittleEndian.Uint64(append(buf, make([]byte, 8)...))
				var back uint64
				if panics(func() {
					if w == 4 {
						s.WriteU32(a, uint32(v))
						back = uint64(s.ReadU32(a))
					} else {
						s.WriteU64(a, v)
						back = s.ReadU64(a)
					}
				}) == ok {
					t.Fatalf("step %d: U%d at %#x panic disagrees with bounds %v", step, 8*w, a, ok)
				}
				if ok {
					var le, rb [8]byte
					binary.LittleEndian.PutUint64(le[:], v)
					ref.write(a, le[:w])
					ref.read(a, rb[:w])
					if want := binary.LittleEndian.Uint64(rb[:]); back != want {
						t.Fatalf("step %d: U%d at %#x read back %#x, want %#x", step, 8*w, a, back, want)
					}
				}
			default:
				rlen := uint64(ops.u16() % (3 * PageSize))
				var r *Region
				if panics(func() { r = NewRegion(s, a, rlen) }) == ref.inRange(a, int(rlen)) {
					t.Fatalf("step %d: NewRegion(%#x, %d) panic disagrees with bounds", step, a, rlen)
				}
				if r == nil {
					continue
				}
				off := ops.offset(int(rlen) + 64)
				w := 4 << (op - 4)
				ok = regionFits(off, w, rlen)
				var back uint64
				if panics(func() {
					if w == 4 {
						back = uint64(r.ReadU32(off))
					} else {
						back = r.ReadU64(off)
					}
				}) == ok {
					t.Fatalf("step %d: Region.ReadU%d(%d) of %d panic disagrees with bounds %v", step, 8*w, off, rlen, ok)
				}
				if ok {
					var rb [8]byte
					ref.read(a+Addr(off), rb[:w])
					if want := binary.LittleEndian.Uint64(rb[:]); back != want {
						t.Fatalf("step %d: Region.ReadU%d(%d) read %#x, want %#x", step, 8*w, off, back, want)
					}
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: op %d at %#x read differs from the page reference", step, op, a)
			}
			if s.Allocated() != len(ref.pages) {
				t.Fatalf("step %d: Allocated = %d, reference has %d pages", step, s.Allocated(), len(ref.pages))
			}
		}
		all, wantAll := make([]byte, size), make([]byte, size)
		s.Read(0, all)
		ref.read(0, wantAll)
		if !bytes.Equal(all, wantAll) {
			t.Fatal("final contents differ from the page reference")
		}
	})
}
