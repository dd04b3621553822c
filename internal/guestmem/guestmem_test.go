package guestmem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSpaceRoundUp(t *testing.T) {
	s := NewSpace(PageSize + 1)
	if s.Size() != 2*PageSize {
		t.Errorf("Size = %d, want %d", s.Size(), 2*PageSize)
	}
}

func TestZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpace(0) should panic")
		}
	}()
	NewSpace(0)
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace(16 * PageSize)
	data := []byte("hello, guest memory")
	s.Write(100, data)
	got := make([]byte, len(data))
	s.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: %q", got)
	}
}

func TestCrossPageWrite(t *testing.T) {
	s := NewSpace(16 * PageSize)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := Addr(PageSize - 100) // straddles 4 pages
	s.Write(base, data)
	got := make([]byte, len(data))
	s.Read(base, got)
	if !bytes.Equal(got, data) {
		t.Error("cross-page round trip failed")
	}
	if s.Allocated() != 4 {
		t.Errorf("Allocated = %d pages, want 4", s.Allocated())
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	s := NewSpace(4 * PageSize)
	b := make([]byte, 64)
	for i := range b {
		b[i] = 0xff
	}
	s.Read(2*PageSize, b)
	for _, v := range b {
		if v != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
	if s.Allocated() != 0 {
		t.Error("read materialized a page")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := NewSpace(PageSize)
	for _, fn := range []func(){
		func() { s.Write(Addr(PageSize-1), []byte{1, 2}) },
		func() { s.Read(Addr(PageSize), make([]byte, 1)) },
		func() { s.ReadU32(Addr(PageSize - 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access should panic")
				}
			}()
			fn()
		}()
	}
}

func TestU32U64(t *testing.T) {
	s := NewSpace(PageSize)
	s.WriteU32(8, 0xdeadbeef)
	if got := s.ReadU32(8); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	// Little-endian on the wire.
	b := make([]byte, 4)
	s.Read(8, b)
	if b[0] != 0xef || b[3] != 0xde {
		t.Errorf("not little-endian: % x", b)
	}
	s.WriteU64(16, 0x0123456789abcdef)
	if got := s.ReadU64(16); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
}

func TestAlloc(t *testing.T) {
	s := NewSpace(64 * PageSize)
	a := s.Alloc(100, 64)
	if uint64(a)%64 != 0 {
		t.Errorf("alignment violated: %#x", uint64(a))
	}
	if a == 0 {
		t.Error("allocator returned null page")
	}
	b := s.Alloc(100, 64)
	if b <= a {
		t.Error("allocations overlap")
	}
	if uint64(b) < uint64(a)+100 {
		t.Error("second allocation inside first")
	}
	p := s.AllocPage()
	if uint64(p)%PageSize != 0 {
		t.Errorf("AllocPage not page-aligned: %#x", uint64(p))
	}
}

func TestAllocZeroAndBadAlign(t *testing.T) {
	s := NewSpace(4 * PageSize)
	a := s.Alloc(0, 0) // degenerate args are normalized
	b := s.Alloc(1, 1)
	if b == a {
		t.Error("zero-size alloc did not advance")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two alignment should panic")
		}
	}()
	s.Alloc(8, 3)
}

func TestAllocExhaustionPanics(t *testing.T) {
	s := NewSpace(2 * PageSize)
	defer func() {
		if recover() == nil {
			t.Error("OOM should panic")
		}
	}()
	s.Alloc(3*PageSize, 1)
}

func TestAllocNonOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := NewSpace(1 << 24)
		type iv struct{ lo, hi uint64 }
		var ivs []iv
		for _, sz := range sizes {
			n := uint64(sz%2048) + 1
			a := s.Alloc(n, 8)
			ivs = append(ivs, iv{uint64(a), uint64(a) + n})
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i].lo < ivs[i-1].hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegion(t *testing.T) {
	s := NewSpace(16 * PageSize)
	r := NewRegion(s, 2*PageSize, 1024)
	if r.Base() != 2*PageSize || r.Len() != 1024 {
		t.Errorf("region geometry %v %v", r.Base(), r.Len())
	}
	s.WriteU32(2*PageSize, 42)
	s.WriteU64(2*PageSize+8, 99)
	if r.ReadU32(0) != 42 || r.ReadU64(8) != 99 {
		t.Error("space writes not visible in region")
	}
}

func TestRegionBounds(t *testing.T) {
	s := NewSpace(4 * PageSize)
	r := NewRegion(s, 0, 16)
	defer func() {
		if recover() == nil {
			t.Error("region overflow should panic")
		}
	}()
	r.ReadU64(12)
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(PageSize + 123)
	if a.PageNum() != 1 || a.PageOff() != 123 {
		t.Errorf("PageNum/Off = %d/%d", a.PageNum(), a.PageOff())
	}
}

func TestMemoryRoundTripProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) > 8192 {
			data = data[:8192]
		}
		s := NewSpace(1 << 20)
		a := Addr(off)
		s.Write(a, data)
		got := make([]byte, len(data))
		s.Read(a, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionOffsetCannotWrap(t *testing.T) {
	// off+n wraps past 2^64 for an offset just below it: the access must
	// still be rejected, not land before the region.
	s := NewSpace(4 * PageSize)
	s.Write(0x1ffc, []byte{1, 2, 3, 4})
	r := NewRegion(s, 0x2000, 64)
	const off = 1<<64 - 4
	for name, fn := range map[string]func(){
		"ReadU32": func() { r.ReadU32(off + 2) },
		"ReadU64": func() { r.ReadU64(off) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s just below offset 2^64 of a 64-byte region did not panic", name)
				}
			}()
			fn()
		}()
	}
}
