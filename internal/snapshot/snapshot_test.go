package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resex/internal/exchange"
	"resex/internal/invariant"
	"resex/internal/resex"
	"resex/internal/sim"
	"resex/internal/workload"
)

func sampleBundle() *Bundle {
	return &Bundle{
		Meta: Meta{
			Kind:         "experiment",
			Experiment:   "fig1",
			Seed:         42,
			DurationNs:   int64(2 * sim.Second),
			WarmupNs:     int64(100 * sim.Millisecond),
			Audit:        true,
			SnapshotAtNs: int64(sim.Second),
		},
		Log: []LogEntry{
			{Idx: 0, AtNs: 0, Cmd: json.RawMessage(`{"cmd":"run-until","t":"1s"}`)},
		},
		Snaps: []Snapshot{
			{
				Key:  Key{PointSeed: 7, Ordinal: 0},
				AtNs: int64(sim.Second),
				State: State{
					Engine: sim.EngineState{Now: sim.Second, Steps: 123, Seq: 456},
				},
			},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b := sampleBundle()
	var buf bytes.Buffer
	if err := Encode(&buf, b); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want, _ := json.Marshal(b)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Fatalf("round trip mismatch:\nwant %s\ngot  %s", want, have)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.snap")
	if err := WriteFile(path, sampleBundle()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Meta.Experiment != "fig1" || len(got.Snaps) != 1 {
		t.Fatalf("unexpected bundle: %+v", got.Meta)
	}
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sampleBundle()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeRejectsDamage(t *testing.T) {
	good := encodeSample(t)
	cases := map[string]func() []byte{
		"empty":       func() []byte { return nil },
		"short magic": func() []byte { return good[:4] },
		"bad magic": func() []byte {
			b := append([]byte(nil), good...)
			b[0] ^= 0xff
			return b
		},
		"version skew": func() []byte {
			b := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(b[10:14], Version+1)
			return b
		},
		"truncated length": func() []byte { return good[:16] },
		"absurd length": func() []byte {
			b := append([]byte(nil), good...)
			binary.BigEndian.PutUint64(b[14:22], maxPayload+1)
			return b
		},
		"truncated payload": func() []byte { return good[:len(good)-12] },
		"missing checksum":  func() []byte { return good[:len(good)-8] },
		"flipped payload byte": func() []byte {
			b := append([]byte(nil), good...)
			b[30] ^= 0x01
			return b
		},
		"flipped checksum byte": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x01
			return b
		},
		"unknown json field": func() []byte {
			payload := []byte(`{"meta":{"kind":"experiment","seed":0,"snapshot_at_ns":0,"bogus":1},"snaps":[]}`)
			return frame(payload)
		},
	}
	for name, mk := range cases {
		if _, err := Decode(bytes.NewReader(mk())); err == nil {
			t.Errorf("%s: Decode accepted damaged input", name)
		}
	}
}

// frame wraps raw payload bytes in a valid header+checksum, for tests that
// need to damage the JSON layer specifically.
func frame(payload []byte) []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], Version)
	buf.Write(v[:])
	var ln [8]byte
	binary.BigEndian.PutUint64(ln[:], uint64(len(payload)))
	buf.Write(ln[:])
	buf.Write(payload)
	h := fnvSum(payload)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h)
	buf.Write(sum[:])
	return buf.Bytes()
}

func fnvSum(p []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

func TestPlanCaptureAssignsDeterministicKeys(t *testing.T) {
	// Two points, two engines each, armed in interleaved order as a
	// parallel sweep might: ordinals must still be per-point build order.
	p := NewCapture(sim.Millisecond)
	engines := make([]*sim.Engine, 4)
	seeds := []int64{101, 202, 101, 202}
	for i := range engines {
		eng := sim.New()
		// A periodic keeps each engine alive past T.
		eng.Every(100*sim.Microsecond, func() {})
		p.Arm(eng, seeds[i], &Source{})
		engines[i] = eng
	}
	for _, eng := range engines {
		eng.RunUntil(2 * sim.Millisecond)
	}
	b, err := p.Bundle(Meta{Kind: "experiment", Experiment: "x", Seed: 1})
	if err != nil {
		t.Fatalf("Bundle: %v", err)
	}
	wantKeys := []Key{{101, 0}, {101, 1}, {202, 0}, {202, 1}}
	if len(b.Snaps) != len(wantKeys) {
		t.Fatalf("got %d snaps, want %d", len(b.Snaps), len(wantKeys))
	}
	for i, s := range b.Snaps {
		if s.Key != wantKeys[i] {
			t.Errorf("snap %d key = %+v, want %+v", i, s.Key, wantKeys[i])
		}
		if s.AtNs != int64(sim.Millisecond) {
			t.Errorf("snap %d at = %d, want %d", i, s.AtNs, int64(sim.Millisecond))
		}
	}
}

func TestPlanVerifyMatchesAndCatchesDivergence(t *testing.T) {
	run := func(plan *Plan, extraEvent bool) {
		eng := sim.New()
		eng.Every(100*sim.Microsecond, func() {})
		if extraEvent {
			eng.After(500*sim.Microsecond, func() {})
		}
		plan.Arm(eng, 55, &Source{})
		eng.RunUntil(2 * sim.Millisecond)
	}

	c := NewCapture(sim.Millisecond)
	run(c, false)
	b, err := c.Bundle(Meta{Kind: "experiment", Experiment: "x"})
	if err != nil {
		t.Fatal(err)
	}

	ok := NewVerify(b)
	run(ok, false)
	if err := ok.Err(); err != nil {
		t.Fatalf("identical replay failed verification: %v", err)
	}

	bad := NewVerify(b)
	run(bad, true)
	err = bad.Err()
	if err == nil {
		t.Fatal("diverged replay passed verification")
	}
	if !strings.Contains(err.Error(), "engine") {
		t.Fatalf("divergence error does not name the engine section: %v", err)
	}
}

func TestPlanVerifyReportsMissingEngines(t *testing.T) {
	c := NewCapture(sim.Millisecond)
	eng := sim.New()
	eng.Every(100*sim.Microsecond, func() {})
	c.Arm(eng, 9, &Source{})
	eng.RunUntil(2 * sim.Millisecond)
	b, err := c.Bundle(Meta{Kind: "experiment"})
	if err != nil {
		t.Fatal(err)
	}

	v := NewVerify(b) // never arm anything
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "never re-captured") {
		t.Fatalf("missing engine not reported: %v", err)
	}
}

func TestBundleOnVerifyPlanErrors(t *testing.T) {
	v := NewVerify(&Bundle{})
	if _, err := v.Bundle(Meta{}); err == nil {
		t.Fatal("Bundle on a verify plan should error")
	}
}

// TestWatchPlanFiresPeriodically: a watch plan hands each armed engine's
// key and source to its callback every period up to the run's end, leaves
// the engine export equal to an unwatched run's, and records nothing.
func TestWatchPlanFiresPeriodically(t *testing.T) {
	type fire struct {
		key Key
		at  sim.Time
	}
	var fires []fire
	src := &Source{}
	w := NewWatch(sim.Millisecond, func(k Key, eng *sim.Engine, s *Source) {
		if s != src {
			t.Errorf("watch got source %p, want the armed %p", s, src)
		}
		fires = append(fires, fire{k, eng.Now()})
	})
	run := func(p *Plan) sim.EngineState {
		eng := sim.New()
		eng.Every(300*sim.Microsecond, func() {})
		if p != nil {
			p.Arm(eng, 7, src)
		}
		eng.RunUntil(3*sim.Millisecond + 500*sim.Microsecond)
		return eng.Checkpoint()
	}
	if got, want := run(w), run(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("watched engine export %+v, unwatched %+v", got, want)
	}
	want := []fire{{Key{7, 0}, sim.Millisecond}, {Key{7, 0}, 2 * sim.Millisecond}, {Key{7, 0}, 3 * sim.Millisecond}}
	if !reflect.DeepEqual(fires, want) {
		t.Fatalf("watch fired %+v, want %+v", fires, want)
	}
	if _, err := w.Bundle(Meta{}); err == nil {
		t.Fatal("Bundle on a watch plan should error")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("watch plan Err = %v, want nil", err)
	}
}

func TestBundleWithNoSnapsErrors(t *testing.T) {
	p := NewCapture(sim.Second)
	if _, err := p.Bundle(Meta{}); err == nil {
		t.Fatal("Bundle with zero captures should error")
	}
}

func TestDecodeRejectsPriorVersion(t *testing.T) {
	// A Version-3 frame (the last format before the exchange section) must
	// be rejected with an error naming both versions, not mis-parsed.
	b := encodeSample(t)
	binary.BigEndian.PutUint32(b[10:14], 3)
	_, err := Decode(bytes.NewReader(b))
	if err == nil {
		t.Fatal("Decode accepted a version-3 snapshot")
	}
	if !strings.Contains(err.Error(), "format version 3") ||
		!strings.Contains(err.Error(), fmt.Sprint(Version)) {
		t.Fatalf("version error does not name both versions: %v", err)
	}
}

func TestExchangeSectionRoundTrips(t *testing.T) {
	// A bundle carrying per-host trade books must survive Encode/Decode
	// byte-identically and diff as the "exchange" section when tampered.
	bk := exchange.NewBook(exchange.BookConfig{})
	a := bk.Join("vm-a", exchange.Vec{100_000, 1 << 19})
	b := bk.Join("vm-b", exchange.Vec{100_000, 1 << 19})
	bk.Spend(a, exchange.DimFabric, 900_000)
	bk.Spend(b, exchange.DimCPU, 50_000)
	bk.CloseEpoch()
	bk.Spend(a, exchange.DimFabric, 900_000)
	bk.CloseEpoch()

	bun := sampleBundle()
	bun.Snaps[0].State.Exchange = []exchange.State{bk.Checkpoint()}
	var buf bytes.Buffer
	if err := Encode(&buf, bun); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want, _ := json.Marshal(bun)
	have, _ := json.Marshal(got)
	if !bytes.Equal(want, have) {
		t.Fatalf("exchange round trip mismatch:\nwant %s\ngot  %s", want, have)
	}

	tampered := got.Snaps[0].State
	tampered.Exchange[0].Trades++
	if bad := Diverging(tampered, bun.Snaps[0].State); len(bad) != 1 || bad[0] != "exchange" {
		t.Fatalf("tampered book diffs as %v, want [exchange]", bad)
	}
}

// TestCaptureSkipsNilBooks: books come from the managers, so nil managers
// and managers whose policy keeps no book add no exchange section.
func TestCaptureSkipsNilBooks(t *testing.T) {
	fungible := workload.New(workload.Config{Hosts: 1, Policy: func() resex.Policy { return resex.NewFungible() }})
	defer fungible.Shutdown()
	plain := workload.New(workload.Config{Hosts: 1, Policy: func() resex.Policy { return resex.NewFreeMarket() }})
	defer plain.Shutdown()
	src := Source{Managers: []*resex.Manager{nil, plain.Mgrs[0], fungible.Mgrs[0], nil}}
	st := src.Capture(sim.New())
	if len(st.Exchange) != 1 || len(st.Managers) != 2 {
		t.Fatalf("captured %d books and %d managers, want 1 and 2", len(st.Exchange), len(st.Managers))
	}
}

// TestAuditSetsSourceAuditor: Audit hands the source its auditor, so the
// next capture exports the auditor's accumulators, and the auditor watches
// the rig's objects from the first sampled pass.
func TestAuditSetsSourceAuditor(t *testing.T) {
	e := workload.New(workload.Config{Hosts: 1, Policy: func() resex.Policy { return resex.NewFungible() }})
	if _, err := e.AddTenant(workload.TenantSpec{Name: "t", Closed: workload.ClosedLoop{Concurrency: 1}, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	src := ForWorkload(e)
	if st := src.Capture(e.TB.Eng); st.Auditor != nil {
		t.Fatal("unaudited source exported an auditor section")
	}
	col := invariant.NewCollector(invariant.Strict)
	a := src.Audit(e.TB.Eng, col)
	if src.Auditor != a {
		t.Fatal("Audit did not set Source.Auditor")
	}
	e.RunMeasured(10*sim.Millisecond, 50*sim.Millisecond)
	st := src.Capture(e.TB.Eng)
	a.Close()
	if st.Auditor == nil || len(st.Exchange) != 1 || st.Workload == nil {
		t.Fatalf("audited capture missing sections: auditor %v, %d books, workload %v",
			st.Auditor != nil, len(st.Exchange), st.Workload != nil)
	}
	if r := col.Report(); r.Total != 0 || r.Checks == 0 {
		t.Fatalf("audit report off: %+v", r)
	}
}
