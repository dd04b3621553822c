package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile (profile.proto) the layer ledger
// reads: the sample types and, for every sample, its values and the function
// names on its stack.
type profile struct {
	// sampleTypes holds "type/unit" per value column, e.g. "cpu/nanoseconds"
	// or "alloc_space/bytes".
	sampleTypes []string
	samples     []sample
}

// sample is one stack with its values, one per sample type.
type sample struct {
	// stack lists function names innermost first; inlined calls are expanded,
	// so a function inlined into its caller appears before that caller.
	stack  []string
	values []int64
}

// column returns the index of the sample type named typ ("cpu",
// "alloc_space"), or -1.
func (p *profile) column(typ string) int {
	for i, st := range p.sampleTypes {
		if strings.HasPrefix(st, typ+"/") {
			return i
		}
	}
	return -1
}

// Field numbers of profile.proto messages.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseProfile decodes a pprof profile, gzip-compressed (as runtime/pprof
// writes it) or raw.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		typeIdx    [][2]uint64 // (type, unit) string indexes
		raws       []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNameIx = map[uint64]uint64{}   // function id → name string index
	)
	err := eachField(data, func(num int, v uint64, msg []byte) error {
		switch num {
		case profSampleType:
			var t [2]uint64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == valueTypeType {
					t[0] = v
				} else if n == valueTypeUnit {
					t[1] = v
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case profSample:
			var s rawSample
			err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case sampleLocationID:
					return packed(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return packed(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id, name uint64
			err := eachField(msg, func(n int, v uint64, _ []byte) error {
				if n == functionID {
					id = v
				} else if n == functionName {
					name = v
				}
				return nil
			})
			funcNameIx[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range (%d strings)", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range typeIdx {
		typ, err := str(t[0])
		if err != nil {
			return nil, err
		}
		unit, err := str(t[1])
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, typ+"/"+unit)
	}
	for _, r := range raws {
		s := sample{values: r.values}
		for _, loc := range r.locs {
			funcs, ok := locFuncs[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, f := range funcs {
				name, err := str(funcNameIx[f])
				if err != nil {
					return nil, err
				}
				s.stack = append(s.stack, name)
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For a varint field it
// passes the value; for a length-delimited field, the bytes. Fixed-width
// fields are skipped: profile.proto uses none of them.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// packed feeds a repeated varint field to add, whether it arrived as one
// unpacked value (msg nil) or as a packed run.
func packed(v uint64, msg []byte, add func(uint64)) error {
	if msg == nil {
		add(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		msg = msg[n:]
	}
	return nil
}

// uvarint decodes one base-128 varint, returning the value and the bytes
// read (0 when b is truncated or the varint overflows 64 bits).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// internalPrefix is the import-path prefix of the layers being measured.
const internalPrefix = "resex/internal/"

// layerOf charges a stack (innermost first) to a layer: the package of its
// innermost resex/internal frame, so runtime work a layer triggers (malloc,
// GC assist, map growth) counts for that layer. Stacks with no such frame go
// to "bench" when the benchmark's own code is on them, to "runtime.gc" when
// a background collector worker (mark, sweep, scavenge) is, and otherwise to
// "runtime.other" (scheduler, goroutine switches).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// byLayer sums one value column of a profile per layer. A profile without
// that column contributes nothing.
func byLayer(p *profile, typ string, into map[string]float64) {
	col := p.column(typ)
	if col < 0 {
		return
	}
	for _, s := range p.samples {
		if col < len(s.values) {
			into[layerOf(s.stack)] += float64(s.values[col])
		}
	}
}
