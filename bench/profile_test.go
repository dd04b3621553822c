package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf encoder for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *pb) uint(field int, x uint64) {
	p.varint(uint64(field)<<3 | 0)
	p.varint(x)
}

func (p *pb) bytes(field int, b []byte) {
	p.varint(uint64(field)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(field int, build func(*pb)) {
	var m pb
	build(&m)
	p.bytes(field, m.b)
}

// packed writes a repeated varint field in packed form.
func (p *pb) packed(field int, xs []uint64) {
	var m pb
	for _, x := range xs {
		m.varint(x)
	}
	p.bytes(field, m.b)
}

// handProfile builds a gzipped CPU profile. Each stack lists function
// names innermost first; a name joined with "+" is one location whose
// first function was inlined into the second.
func handProfile(t *testing.T, stacks [][]string, packed bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p.msg(profSampleType, func(m *pb) { m.uint(valueTypeType, 1); m.uint(valueTypeUnit, 2) })
	p.msg(profSampleType, func(m *pb) { m.uint(valueTypeType, 3); m.uint(valueTypeUnit, 4) })
	funcs := map[string]uint64{}
	funcID := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		p.msg(profFunction, func(m *pb) { m.uint(functionID, id); m.uint(functionName, strIdx(name)) })
		return id
	}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			var lines []uint64
			for _, name := range bytes.Split([]byte(frame), []byte("+")) {
				lines = append(lines, funcID(string(name)))
			}
			id := nextLoc
			nextLoc++
			p.msg(profLocation, func(m *pb) {
				m.uint(locationID, id)
				for _, f := range lines {
					m.msg(locationLine, func(l *pb) { l.uint(lineFunctionID, f); l.uint(2, 42) })
				}
			})
			locs = append(locs, id)
		}
		ns := uint64(10_000_000 * (i + 1))
		p.msg(profSample, func(m *pb) {
			if packed {
				m.packed(sampleLocationID, locs)
				m.packed(sampleValue, []uint64{1, ns})
				return
			}
			for _, l := range locs {
				m.uint(sampleLocationID, l)
			}
			m.uint(sampleValue, 1)
			m.uint(sampleValue, ns)
		})
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		layer string
	}{
		// Runtime work a layer triggers is charged to that layer.
		{[]string{"runtime.mallocgc", "resex/internal/fabric.(*Link).send", "resex/internal/sim.(*Engine).Step"}, "fabric"},
		// Within an inlined location the first line is the innermost call.
		{[]string{"runtime.mallocgc", "resex/internal/hca.(*QP).post+resex/internal/sim.(*Proc).run"}, "hca"},
		// Subpackages are charged to their top-level layer.
		{[]string{"resex/internal/invariant/prop.Check", "testing.tRunner"}, "invariant"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.bgsweep", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime.other"},
		{[]string{"hash/fnv.(*sum64a).Write", "main.(*run).check", "main.main"}, "bench"},
	}
	var stacks [][]string
	want := map[string]float64{}
	for i, c := range cases {
		stacks = append(stacks, c.stack)
		want[c.layer] += float64(10_000_000 * (i + 1))
	}
	for _, packed := range []bool{false, true} {
		p, err := parseProfile(handProfile(t, stacks, packed))
		if err != nil {
			t.Fatalf("packed=%v: %v", packed, err)
		}
		if got := p.sampleTypes; len(got) != 2 || got[0] != "samples/count" || got[1] != "cpu/nanoseconds" {
			t.Fatalf("packed=%v: sample types %v", packed, got)
		}
		for i, s := range p.samples {
			if got := layerOf(s.stack); got != cases[i].layer {
				t.Errorf("packed=%v: stack %v charged to %s, want %s", packed, s.stack, got, cases[i].layer)
			}
		}
		got := map[string]float64{}
		byLayer(p, "cpu", got)
		for l, ns := range want {
			if got[l] != ns {
				t.Errorf("packed=%v: %s = %v ns, want %v", packed, l, got[l], ns)
			}
		}
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.column("alloc_space") < 0 || len(p.samples) == 0 {
		t.Fatalf("sample types %v, %d samples", p.sampleTypes, len(p.samples))
	}
	for _, s := range p.samples {
		if len(s.stack) == 0 || len(s.values) != len(p.sampleTypes) {
			t.Fatalf("sample with %d frames and %d values (%d types)", len(s.stack), len(s.values), len(p.sampleTypes))
		}
	}
}

func TestParseRejectsCorruptProfiles(t *testing.T) {
	good := handProfile(t, [][]string{{"main.main"}}, true)
	zr, err := gzip.NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(zr)
	for n := 1; n < raw.Len(); n++ {
		// Every proper prefix either parses (it ends on a field boundary)
		// or is rejected; none may panic.
		parseProfile(raw.Bytes()[:n])
	}
	if _, err := parseProfile(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip stream parsed")
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x08}); err == nil {
		t.Error("length running past the end parsed")
	}
}
