package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestLogRoundTrip(t *testing.T) {
	g := NewGenerator(13)
	reqs := Record(g, 100)
	if len(reqs) != 100 {
		t.Fatalf("recorded %d", len(reqs))
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 16+100*RequestSize {
		t.Errorf("log size %d", buf.Len())
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("read %d", len(got))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestLogEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLog(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty log: %v %v", got, err)
	}
}

func TestLogCorruption(t *testing.T) {
	g := NewGenerator(1)
	var buf bytes.Buffer
	if err := WriteLog(&buf, Record(g, 3)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xff
	if _, err := ReadLog(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte{}, raw...)
	bad[4] = 99
	if _, err := ReadLog(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated body.
	if _, err := ReadLog(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Error("truncated log accepted")
	}
	// Corrupt record (magic inside payload).
	bad = append([]byte{}, raw...)
	bad[16+70] ^= 0xff
	if _, err := ReadLog(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt record accepted")
	}
	// Implausible count.
	bad = append([]byte{}, raw[:16]...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadLog(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("implausible count: %v", err)
	}
}

func TestReplaySequencing(t *testing.T) {
	g := NewGenerator(5)
	reqs := Record(g, 4)
	r := NewReplay(reqs, true)
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	seen := map[uint32]bool{}
	for i := 1; i <= 10; i++ { // wraps past the end
		req := r.Next(123)
		if req.Seq != uint64(i) {
			t.Fatalf("replay seq %d at emission %d", req.Seq, i)
		}
		if req.SentAt != 123 {
			t.Fatalf("SentAt not restamped")
		}
		seen[req.SymbolID] = true
	}
	// Content must come from the recorded set.
	if len(seen) > 4 {
		t.Error("replay invented content")
	}
}

func TestReplayExhaustionPanics(t *testing.T) {
	r := NewReplay(Record(NewGenerator(1), 2), false)
	r.Next(0)
	r.Next(0)
	defer func() {
		if recover() == nil {
			t.Error("exhausted replay should panic")
		}
	}()
	r.Next(0)
}

func TestLogForgedCountNoBody(t *testing.T) {
	// A bare header claiming the largest accepted count must fail on the
	// missing records without first allocating room for all of them.
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:], 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadLog(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadLog) {
		t.Fatalf("forged header: err = %v, want ErrBadLog", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("forged header allocated %d bytes, want < 1 MB", d)
	}
}

// FuzzReadLog checks that no input panics the decoder and that every log it
// accepts re-encodes to exactly the bytes it consumed.
func FuzzReadLog(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteLog(&buf, Record(NewGenerator(3), 2)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:16])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadLog) {
				t.Fatalf("error %v is not ErrBadLog", err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteLog(&out, reqs); err != nil {
			t.Fatal(err)
		}
		if n := out.Len(); n > len(data) || !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("accepted log of %d records does not re-encode to its input", len(reqs))
		}
	})
}
